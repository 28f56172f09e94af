// Package timewheel provides a hashed timer wheel over clock.Clock for
// the hub's high-churn waits: delivery retry backoffs and block ack
// timeouts. Each of those waits used to allocate a fresh Clock.NewTimer
// (a channel, a runtime timer, and — under the simulated clock — a heap
// event); at tens of thousands of alerts per second the timers became
// measurable garbage. The wheel multiplexes any number of waits onto
// ONE underlying clock timer:
//
//   - Timer nodes are pooled on an internal free list and linked
//     intrusively into hashed slots, so arming and canceling a wait is
//     O(1) and allocation-free in steady state.
//   - The single driver (clock.AfterFunc) is always armed at the exact
//     earliest pending deadline — not at the next coarse tick — so the
//     wheel is virtual-clock-exact: a test that advances a clock.Sim by
//     precisely the backoff delay observes the fire, just as with a
//     dedicated timer. The coarse tick only spreads nodes across slots.
//   - When nothing is pending the driver is stopped; an idle wheel owns
//     no goroutine and needs no Close.
//
// A node wakes a Waker (Arm) and is one allocation; a caller's own
// long-lived value is the Waker, so a wait needs no func value. Usage
// contract: every Timer must be returned with Release, fired or not.
// Release cancels the wait and recycles the node; using a Timer after
// Release is a bug (enable poison mode in tests to scribble on recycled
// nodes and surface such bugs).
package timewheel

import (
	"sync"
	"time"

	"simba/internal/clock"
)

// Default wheel geometry.
const (
	// DefaultSlots is the hashed slot count (a power of two).
	DefaultSlots = 64
	// DefaultTick is the slot granularity. It affects only how nodes
	// spread across slots — firing is exact-deadline regardless.
	DefaultTick = time.Millisecond
)

// Options parameterize a wheel.
type Options struct {
	// Slots is the hashed slot count, rounded up to a power of two.
	// Zero means DefaultSlots.
	Slots int
	// Tick is the slot-hash granularity. Zero means DefaultTick.
	Tick time.Duration
	// Poison scribbles on recycled Timer nodes so tests catch
	// use-after-Release. Never enable outside tests.
	Poison bool
}

// Waker is what a wait wakes when it falls due. A pointer to the
// waiting value implements it, and storing a pointer in an interface
// allocates nothing.
type Waker interface{ Wake() }

// nop is After's Waker.
type nop struct{}

func (nop) Wake() {}

// Timer is one pending (or fired) wait, owned by the wheel's node pool.
// Obtain with Wheel.Arm and always return it with Wheel.Release.
type Timer struct {
	wk   Waker
	when time.Time
	slot int // owning slot index; -1 when unlinked
	next *Timer
	prev *Timer
}

// Wheel multiplexes many waits onto one clock timer. Safe for
// concurrent use.
type Wheel struct {
	clk  clock.Clock
	tick time.Duration
	mask int

	mu       sync.Mutex
	slots    []*Timer // slot heads, intrusively linked
	pending  int
	free     *Timer // recycled nodes, linked by next
	driver   clock.Timer
	driverAt time.Time // deadline the driver is armed for; zero when idle
	poison   bool
}

// New builds a wheel over clk.
func New(clk clock.Clock, opts Options) *Wheel {
	slots := opts.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	// Round up to a power of two so the slot pick is a mask.
	n := 1
	for n < slots {
		n <<= 1
	}
	tick := opts.Tick
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Wheel{
		clk:    clk,
		tick:   tick,
		mask:   n - 1,
		slots:  make([]*Timer, n),
		poison: opts.Poison,
	}
}

// After arms a bare deadline d from now: a wait that wakes nothing, the
// arm-and-release cost every Arm wait pays. The returned Timer must be
// passed to Release.
func (w *Wheel) After(d time.Duration) *Timer { return w.Arm(d, nop{}) }

// Arm arms a wait that wakes wk once, d from now (d ≤ 0: in this call),
// with the wheel locked — so once Release returns wk has been woken or
// never will be; Wake must be short and not call the wheel.
func (w *Wheel) Arm(d time.Duration, wk Waker) *Timer {
	w.mu.Lock()
	t := w.getLocked()
	t.wk = wk
	now := w.clk.Now()
	t.when = now.Add(max(d, 0))
	if d <= 0 {
		t.wk.Wake()
		w.mu.Unlock()
		return t
	}
	slot := w.slotOf(t.when)
	t.slot = slot
	t.prev = nil
	t.next = w.slots[slot]
	if t.next != nil {
		t.next.prev = t
	}
	w.slots[slot] = t
	w.pending++
	w.armLocked(t.when, now)
	w.mu.Unlock()
	return t
}

// Release cancels the wait if still pending and recycles the node. It is
// the caller's obligation for every Timer; the Timer must not be used
// afterwards.
func (w *Wheel) Release(t *Timer) {
	if t == nil {
		return
	}
	w.mu.Lock()
	if t.slot >= 0 {
		w.unlinkLocked(t)
		// Last pending wait canceled: stop the driver so an idle wheel
		// holds no armed timer and cannot fire spuriously. A fire already
		// in flight (Stop reports false) is harmless — advance finds
		// nothing due and leaves the wheel idle.
		if w.pending == 0 && w.driver != nil && !w.driverAt.IsZero() {
			w.driver.Stop()
			w.driverAt = time.Time{}
		}
	}
	t.wk = nil
	if w.poison {
		t.when = time.Unix(-1<<40, 0) // absurd deadline: reads after Release stand out
	}
	t.prev = nil
	t.next = w.free
	w.free = t
	w.mu.Unlock()
}

// Pending reports how many waits are armed.
func (w *Wheel) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// slotOf hashes a deadline onto a slot.
func (w *Wheel) slotOf(when time.Time) int {
	return int(when.UnixNano()/int64(w.tick)) & w.mask
}

// getLocked pops a recycled node or allocates a fresh one.
func (w *Wheel) getLocked() *Timer {
	if t := w.free; t != nil {
		w.free = t.next
		t.next = nil
		t.slot = -1
		return t
	}
	return &Timer{slot: -1}
}

// unlinkLocked removes t from its slot list.
func (w *Wheel) unlinkLocked(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.slots[t.slot] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
	t.slot = -1
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
// next earliest deadline (or go idle). One pass over the slot heads is
// O(slots + pending) — slots is small and pending is bounded by the
// caller's wait concurrency.
func (w *Wheel) advance() {
	w.mu.Lock()
	now := w.clk.Now()
	var nextAt time.Time
	for i := range w.slots {
		t := w.slots[i]
		for t != nil {
			next := t.next
			if !t.when.After(now) {
				w.unlinkLocked(t)
				t.wk.Wake()
			} else if nextAt.IsZero() || t.when.Before(nextAt) {
				nextAt = t.when
			}
			t = next
		}
	}
	w.driverAt = nextAt
	if !nextAt.IsZero() {
		w.driver.Reset(nextAt.Sub(now))
	}
	w.mu.Unlock()
}
