// Package timewheel multiplexes the hub's high-churn waits — delivery
// retry backoffs and block ack timeouts — onto ONE underlying clock
// timer. Each of those waits used to allocate a fresh Clock.NewTimer (a
// channel, a runtime timer, and — under the simulated clock — a heap
// event); at tens of thousands of alerts per second the timers became
// measurable garbage.
//
//   - A Timer belongs to the value that waits: it is a field of it, and
//     the wheel links it into its one intrusive list while it is armed,
//     so arming and canceling a wait is O(1) and allocates nothing.
//   - The single driver (clock.AfterFunc) is always armed at the exact
//     earliest pending deadline, so the wheel is virtual-clock-exact: a
//     test that advances a clock.Sim by precisely the backoff delay
//     observes the fire, just as with a dedicated timer.
//   - When nothing is pending the driver is stopped; an idle wheel owns
//     no goroutine and needs no Close.
//
// A fire wakes a Waker, with the wheel locked — so once Release returns
// the wait has been woken or never will be. A caller's own long-lived
// value is the Waker, so a wait needs no func value. A Timer that fired
// or was released may be armed again; Release of one does nothing.
package timewheel

import (
	"sync"
	"time"

	"simba/internal/clock"
)

// Options parameterize a wheel. It has no fields: the wheel has nothing
// left to tune, and New keeps its shape for its callers.
type Options struct{}

// Waker is what a wait wakes when it falls due. A pointer to the
// waiting value implements it, and storing a pointer in an interface
// allocates nothing.
type Waker interface{ Wake() }

// nop is After's Waker.
type nop struct{}

func (nop) Wake() {}

// Timer is one wait, owned by the value that waits. The zero value is
// unarmed. An armed Timer is linked into its wheel, so it is not
// copied until it has fired or been released.
type Timer struct {
	wk         Waker
	when       time.Time
	next, prev *Timer // nil while unarmed
}

// Wheel multiplexes many waits onto one clock timer. Safe for
// concurrent use.
type Wheel struct {
	clk clock.Clock

	mu       sync.Mutex
	armed    Timer // sentinel of the circular list of armed Timers
	pending  int
	driver   clock.Timer
	driverAt time.Time // deadline the driver is armed for; zero when idle
}

// New builds a wheel over clk.
func New(clk clock.Clock, _ Options) *Wheel {
	w := &Wheel{clk: clk}
	w.armed.next, w.armed.prev = &w.armed, &w.armed
	return w
}

// After arms a bare deadline d from now on a Timer of its own: a wait
// that wakes nothing, the arm-and-release cost every wait pays plus the
// Timer's allocation.
func (w *Wheel) After(d time.Duration) *Timer {
	t := new(Timer)
	w.Arm(t, d, nop{})
	return t
}

// Arm arms t to wake wk once, d from now (d ≤ 0: in this call), with
// the wheel locked; Wake must be short and not call the wheel. Arming a
// Timer that is still armed panics.
func (w *Wheel) Arm(t *Timer, d time.Duration, wk Waker) {
	w.mu.Lock()
	if t.next != nil {
		w.mu.Unlock()
		panic("timewheel: Arm of an armed Timer")
	}
	if d <= 0 {
		wk.Wake()
		w.mu.Unlock()
		return
	}
	now := w.clk.Now()
	t.wk, t.when = wk, now.Add(d)
	t.prev, t.next = &w.armed, w.armed.next
	t.next.prev, w.armed.next = t, t
	w.pending++
	w.armLocked(t.when, now)
	w.mu.Unlock()
}

// Release cancels t's wait if it is still armed, and does nothing
// otherwise.
func (w *Wheel) Release(t *Timer) {
	w.mu.Lock()
	if t.next != nil {
		w.unlinkLocked(t)
		// Last pending wait canceled: stop the driver so an idle wheel
		// holds no armed timer and cannot fire spuriously. A fire already
		// in flight (Stop reports false) is harmless — advance finds
		// nothing due and leaves the wheel idle.
		if w.pending == 0 && !w.driverAt.IsZero() {
			w.driver.Stop()
			w.driverAt = time.Time{}
		}
	}
	w.mu.Unlock()
}

// Pending reports how many waits are armed.
func (w *Wheel) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// unlinkLocked takes t off the armed list.
func (w *Wheel) unlinkLocked(t *Timer) {
	t.prev.next, t.next.prev = t.next, t.prev
	t.wk, t.next, t.prev = nil, nil, nil
	w.pending--
}

// armLocked ensures the driver fires at or before deadline. The driver
// is always armed at the exact earliest pending deadline, which keeps
// simulated-clock tests exact.
func (w *Wheel) armLocked(deadline, now time.Time) {
	if !w.driverAt.IsZero() && !deadline.Before(w.driverAt) {
		return
	}
	w.driverAt = deadline
	d := deadline.Sub(now)
	if w.driver == nil {
		w.driver = w.clk.AfterFunc(d, w.advance)
		return
	}
	w.driver.Reset(d)
}

// advance is the driver body: fire everything due, then re-arm at the
// next earliest deadline (or go idle). One pass over the armed list is
// O(pending), which is bounded by the caller's wait concurrency.
func (w *Wheel) advance() {
	w.mu.Lock()
	now := w.clk.Now()
	var nextAt time.Time
	for t := w.armed.next; t != &w.armed; {
		next := t.next
		if !t.when.After(now) {
			wk := t.wk
			w.unlinkLocked(t)
			wk.Wake()
		} else if nextAt.IsZero() || t.when.Before(nextAt) {
			nextAt = t.when
		}
		t = next
	}
	w.driverAt = nextAt
	if !nextAt.IsZero() {
		w.driver.Reset(nextAt.Sub(now))
	}
	w.mu.Unlock()
}
