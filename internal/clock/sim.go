package clock

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Sim is a discrete-event simulated Clock. Virtual time stands still
// until the owner calls Advance, which fires the pending
// timers whose deadlines fall inside the advanced window, in deadline
// order, each run to completion (actor.go). RunFor, RunUntil and Drive
// advance one stride at a time (drive.go).
//
// Sim is safe for concurrent use. Advance and the drivers must not be
// called concurrently with themselves.
type Sim struct {
	mu    sync.Mutex
	now   time.Time
	queue []*timer // pending fires, by deadline, then by arming order
	seq   uint64

	running bool            // an actor holds the baton: one is busy
	runq    []chan struct{} // actors waiting for the baton, in wake order
	actors  []uintptr       // live actors, by their functions' entries
	parked  []*wait         // parked Waits, in parking order
	quiet   sync.Cond       // on mu: no actor runs, or alarm rang
	alarm   *time.Timer
	closed  bool
}

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
	s := &Sim{now: start}
	s.quiet.L = &s.mu
	return s
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock. It parks the calling actor until the virtual
// clock has advanced by d. A non-positive d returns at once.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := s.After(d)
	s.wait([]any{ch})
	<-ch
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	return s.NewTimer(d).C()
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	return s.arm(&timer{ch: make(chan time.Time, 1)}, d)
}

// AfterFunc implements Clock. f runs as an actor, matching
// time.AfterFunc semantics.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	return s.arm(&timer{fn: f}, d)
}

// NewTicker implements Clock. The ticker re-arms inside the clock, so
// ticks keep coming even if the consuming goroutine lags; like
// time.Ticker, ticks are dropped rather than buffered when the consumer
// is slow.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	return ticker{s.arm(&timer{ch: make(chan time.Time, 1), period: d}, d)}
}

// Waiters reports how many timers and tickers are currently pending.
func (s *Sim) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline falls in the window, in deadline order, events the fired ones
// schedule inside the window included. Before each event, and before it
// returns, it waits until no actor is busy, so what an event woke has
// run to its next wait when the next event fires.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.now.Add(d)
	for {
		s.quietLocked()
		if len(s.queue) == 0 || s.queue[0].when.After(target) {
			if s.now.Before(target) {
				s.now = target
			}
			return
		}
		t := s.queue[0]
		s.queue = slices.Delete(s.queue, 0, 1)
		s.now = t.when // never before now: armed at or after it
		if t.period > 0 {
			s.armLocked(t, t.period)
		}
		if t.fn != nil {
			s.goLocked(t.fn)
			continue
		}
		select {
		case t.ch <- s.now:
		default:
		}
		s.notifyLocked(t.ch)
	}
}

func (s *Sim) arm(t *timer, d time.Duration) *timer {
	t.sim = s
	t.Reset(d)
	return t
}

// armLocked queues t's next fire d from now.
func (s *Sim) armLocked(t *timer, d time.Duration) {
	s.seq++
	t.when, t.seq = s.now.Add(max(d, 0)), s.seq
	i, _ := slices.BinarySearchFunc(s.queue, t, byDeadline)
	s.queue = slices.Insert(s.queue, i, t)
}

// cancelLocked removes t's pending fire, reporting whether it had one.
func (s *Sim) cancelLocked(t *timer) bool {
	i, found := slices.BinarySearchFunc(s.queue, t, byDeadline)
	if found {
		s.queue = slices.Delete(s.queue, i, i+1)
	}
	return found
}

func byDeadline(a, b *timer) int {
	return cmp.Or(a.when.Compare(b.when), cmp.Compare(a.seq, b.seq))
}

// timer is a Sim's Timer, AfterFunc or Ticker: a fire sends on ch, or
// runs fn as an actor; a period re-arms it.
type timer struct {
	sim    *Sim
	ch     chan time.Time
	fn     func()
	period time.Duration
	when   time.Time // the pending or last fire
	seq    uint64    // tiebreak: earlier armed fires first
}

func (t *timer) C() <-chan time.Time { return t.ch }

func (t *timer) Stop() bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	return t.sim.cancelLocked(t)
}

func (t *timer) Reset(d time.Duration) bool {
	t.sim.mu.Lock()
	defer t.sim.mu.Unlock()
	active := t.sim.cancelLocked(t)
	t.sim.armLocked(t, d)
	return active
}

type ticker struct{ *timer }

func (t ticker) Stop() { t.timer.Stop() }
