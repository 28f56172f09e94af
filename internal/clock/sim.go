package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Sim is a discrete-event simulated Clock. Virtual time stands still
// until the owner calls Advance (or AdvanceTo), which fires the pending
// timers whose deadlines fall inside the advanced window, in deadline
// order. Between every fired event the Sim yields the processor several
// times so that goroutines woken by the event can run and schedule
// follow-up events before time moves past them. A driver moves time with
// Step, RunFor, RunUntil or Drive, which also wait for those goroutines
// to park (drive.go).
//
// Sim is safe for concurrent use. Advance and the drivers must not be
// called concurrently with themselves.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	queue   eventQueue
	seq     uint64
	waiters int
	dump    []byte // the drivers' goroutine dump, reused
}

// settleRounds is how many scheduler yields follow each fired event
// before the queue is re-examined.
const settleRounds = 64

var _ Clock = (*Sim)(nil)

// defaultEpoch is the virtual time a NewSim starts at when the caller
// passes the zero time: 2001-03-26 09:00 UTC, the date on the SIMBA
// technical report.
var defaultEpoch = time.Date(2001, time.March, 26, 9, 0, 0, 0, time.UTC)

// NewSim returns a simulated clock starting at start. If start is the
// zero time, a fixed default epoch is used so tests are reproducible.
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = defaultEpoch
	}
	return &Sim{now: start}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock. It blocks until the virtual clock has
// advanced by d. A non-positive d yields once and returns.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	<-s.After(d)
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{sim: s, ch: make(chan time.Time, 1)}
	s.mu.Lock()
	s.waiters++
	t.ev = s.scheduleLocked(d, t.fire)
	s.mu.Unlock()
	return t
}

// AfterFunc implements Clock. f runs in its own goroutine, matching
// time.AfterFunc semantics.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	t := &simTimer{sim: s, fn: f}
	s.mu.Lock()
	s.waiters++
	t.ev = s.scheduleLocked(d, t.fire)
	s.mu.Unlock()
	return t
}

// NewTicker implements Clock. The ticker reschedules itself inside the
// clock, so ticks keep coming even if the consuming goroutine lags;
// like time.Ticker, ticks are dropped rather than buffered when the
// consumer is slow.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &simTicker{sim: s, period: d, ch: make(chan time.Time, 1)}
	s.mu.Lock()
	s.waiters++
	t.ev = s.scheduleLocked(d, t.fire)
	s.mu.Unlock()
	return t
}

// Waiters reports how many timers and tickers are currently pending.
func (s *Sim) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline falls in the window, in deadline order.
func (s *Sim) Advance(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// AdvanceTo moves virtual time forward to target, firing every timer
// whose deadline is at or before target, in deadline order. Events
// scheduled by woken goroutines that also land inside the window are
// fired in the same pass. AdvanceTo returns once the queue holds no
// event at or before target and the clock reads target.
func (s *Sim) AdvanceTo(target time.Time) {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.queue[0].when.After(target) {
			if s.now.Before(target) {
				s.now = target
			}
			s.mu.Unlock()
			s.settle()
			// A settled goroutine may have scheduled a new event inside
			// the window; loop once more to catch it.
			s.mu.Lock()
			done := len(s.queue) == 0 || s.queue[0].when.After(target)
			s.mu.Unlock()
			if done {
				return
			}
			continue
		}
		ev := heap.Pop(&s.queue).(*event)
		if ev.when.After(s.now) {
			s.now = ev.when
		}
		s.waiters--
		fire := ev.fire
		s.mu.Unlock()
		fire(ev.when)
		s.settle()
	}
}

// settle yields the processor repeatedly so goroutines woken by a fired
// event get a chance to run and schedule their next timer before the
// simulation advances further.
func (s *Sim) settle() {
	for range settleRounds {
		runtime.Gosched()
	}
}

// scheduleLocked inserts an event d from now. The caller holds s.mu.
func (s *Sim) scheduleLocked(d time.Duration, fire func(time.Time)) *event {
	if d < 0 {
		d = 0
	}
	s.seq++
	ev := &event{when: s.now.Add(d), seq: s.seq, fire: fire}
	heap.Push(&s.queue, ev)
	return ev
}

// removeLocked removes ev from the queue if still pending, reporting
// whether it was removed. The caller holds s.mu.
func (s *Sim) removeLocked(ev *event) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&s.queue, ev.index)
	s.waiters--
	return true
}

// event is a scheduled timer firing.
type event struct {
	when  time.Time
	seq   uint64 // tiebreak: earlier scheduled fires first
	fire  func(time.Time)
	index int // heap index; -1 once popped or removed
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// simTimer implements Timer for Sim. Exactly one of ch and fn is set.
type simTimer struct {
	sim *Sim
	ch  chan time.Time
	fn  func()

	mu sync.Mutex
	ev *event
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) fire(when time.Time) {
	t.mu.Lock()
	t.ev = nil
	t.mu.Unlock()
	if t.fn != nil {
		go t.fn()
		return
	}
	select {
	case t.ch <- when:
	default:
	}
}

func (t *simTimer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ev == nil {
		return false
	}
	removed := t.sim.removeLocked(t.ev)
	t.ev = nil
	return removed
}

func (t *simTimer) Reset(d time.Duration) bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	active := false
	if t.ev != nil {
		active = t.sim.removeLocked(t.ev)
	}
	t.sim.waiters++
	t.ev = t.sim.scheduleLocked(d, t.fire)
	return active
}

// simTicker implements Ticker for Sim.
type simTicker struct {
	sim    *Sim
	period time.Duration
	ch     chan time.Time

	mu      sync.Mutex
	ev      *event
	stopped bool
}

func (t *simTicker) C() <-chan time.Time { return t.ch }

func (t *simTicker) fire(when time.Time) {
	select {
	case t.ch <- when:
	default:
	}
	// Reschedule inside the clock so periodic activity continues without
	// requiring the consuming goroutine to run first.
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.sim.waiters++
	t.ev = t.sim.scheduleLocked(t.period, t.fire)
}

func (t *simTicker) Stop() {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	if t.ev != nil {
		t.sim.removeLocked(t.ev)
		t.ev = nil
	}
}
