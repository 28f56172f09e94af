package clock

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"
)

// A Sim runs each fired event to completion before it fires the next
// (JBotSim's pulse): it counts its busy actors and fires only when none
// is left. An actor is a goroutine started by Go, or an AfterFunc
// callback. It is busy from its start to its exit, except while it is
// parked in Wait or Sleep. Busy actors run one at a time, in the order
// they were started or woken, so one seed gives one run. Code in the
// simulated world therefore
//   - starts its goroutines with Clock.Go;
//   - calls Wait before a receive or select that may last virtual time;
//   - calls Notify after every send or close into a channel an actor
//     waits on (the Sim's timers and tickers notify themselves);
//   - holds no lock across a wait, and never blocks outside Wait on
//     what another actor does: a blocked actor is busy.
//
// A channel an actor waits on either holds values in a buffer and is
// never closed, or carries no value and is only closed.
//
// The count is exact: Notify counts a parked actor busy again under the
// Sim's lock, before the notifier itself can park or exit, so it never
// reads 0 while a woken actor has yet to run. It is also checked. At
// each quiet point, a parked actor whose channel is ready is a wake no
// Notify announced, and the Sim panics naming its wait. An actor that
// stays busy for quietBound of wall time (it spins, or blocks outside
// Wait) makes the wait for quiet panic, naming the live actors.

// quietBound bounds, in wall time, each wait for quiet and Drive's wait
// for its function.
const quietBound = 30 * time.Second

// wait is one actor's Wait: parked while it is in Sim.parked.
type wait struct {
	chs  []any
	wake chan struct{} // the baton, once Notify has queued the actor
	at   [1]uintptr    // Wait's caller
}

// Wait parks the calling actor until one of chs, receivable channels,
// holds a value or is closed, so that the receive or select on them
// that follows does not block. On any clock but a Sim it returns at once
// and the select blocks as it would without it. Only actors Wait on a
// Sim; on a closed Sim the actor exits (runtime.Goexit).
func Wait(c Clock, chs ...any) {
	if s, ok := c.(*Sim); ok {
		s.wait(chs)
	}
}

// Notify tells the actors waiting on ch that a value was sent into it or
// that it was closed. On any clock but a Sim it does nothing.
func Notify(c Clock, ch any) {
	if s, ok := c.(*Sim); ok {
		s.mu.Lock()
		s.notifyLocked(ch)
		s.mu.Unlock()
	}
}

// Go implements Clock: f runs as an actor.
func (s *Sim) Go(f func()) {
	s.mu.Lock()
	s.goLocked(f)
	s.mu.Unlock()
}

func (s *Sim) goLocked(f func()) {
	fn := reflect.ValueOf(f).Pointer()
	s.actors = append(s.actors, fn)
	start := make(chan struct{}, 1)
	s.readyLocked(start)
	go func() {
		defer s.exit(fn)
		<-start
		f()
	}()
}

// Actors reports how many actors are live.
func (s *Sim) Actors() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.actors)
}

// Close ends the simulated world: every actor parked in Wait, and every
// one that parks from now on, exits through runtime.Goexit, so its
// deferred calls run. Close returns once no actor is live, and panics
// if one stays busy for quietBound.
func (s *Sim) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, w := range s.parked {
		s.readyLocked(w.wake)
	}
	s.parked = nil
	if err := s.awaitLocked(func() bool { return len(s.actors) == 0 }, quietBound); err != nil {
		panic(err)
	}
}

func (s *Sim) exit(fn uintptr) {
	s.mu.Lock()
	i := slices.Index(s.actors, fn)
	s.actors = slices.Delete(s.actors, i, i+1)
	s.releaseLocked()
	s.mu.Unlock()
}

func (s *Sim) wait(chs []any) {
	w := &wait{chs: slices.Clone(chs), wake: make(chan struct{}, 1)}
	runtime.Callers(3, w.at[:])
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && !ready(w.chs) {
		s.parked = append(s.parked, w)
		s.releaseLocked()
		s.mu.Unlock()
		<-w.wake
		s.mu.Lock()
	}
	if s.closed {
		runtime.Goexit()
	}
}

// notifyLocked queues, in the order they parked, the actors parked on ch.
func (s *Sim) notifyLocked(ch any) {
	p := reflect.ValueOf(ch).UnsafePointer()
	kept := s.parked[:0]
	for _, w := range s.parked {
		if slices.ContainsFunc(w.chs, func(c any) bool { return reflect.ValueOf(c).UnsafePointer() == p }) {
			s.readyLocked(w.wake)
		} else {
			kept = append(kept, w)
		}
	}
	clear(s.parked[len(kept):])
	s.parked = kept
}

// readyLocked queues an actor for the baton, which it takes by a
// receive from wake.
func (s *Sim) readyLocked(wake chan struct{}) {
	s.runq = append(s.runq, wake)
	s.passLocked()
}

// releaseLocked takes the baton back from the running actor, which
// parked or exited, and passes it on.
func (s *Sim) releaseLocked() {
	if !s.running {
		panic("clock: Wait outside an actor: start sim-world goroutines with Clock.Go")
	}
	s.running = false
	s.passLocked()
}

// passLocked hands a free baton to the first queued actor; with none
// queued the Sim is quiet.
func (s *Sim) passLocked() {
	switch {
	case s.running:
	case len(s.runq) == 0:
		s.quiet.Broadcast()
	default:
		s.running = true
		s.runq[0] <- struct{}{}
		s.runq = s.runq[1:]
	}
}

// quietLocked waits until no actor is busy, then checks that no parked
// actor missed a wake.
func (s *Sim) quietLocked() {
	if err := s.awaitLocked(func() bool { return !s.running }, quietBound); err != nil {
		panic(err)
	}
	for _, w := range s.parked {
		if ready(w.chs) {
			f, _ := runtime.CallersFrames(w.at[:]).Next()
			panic(fmt.Sprintf("clock: the actor parked in Wait at %s:%d has a ready channel that no Notify announced", f.Function, f.Line))
		}
	}
}

// awaitLocked waits on s.quiet until done holds, or fails after bound
// of wall time naming the live actors.
func (s *Sim) awaitLocked(done func() bool, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	if s.alarm == nil {
		s.alarm = time.AfterFunc(bound, func() { s.mu.Lock(); s.quiet.Broadcast(); s.mu.Unlock() })
	}
	for s.alarm.Reset(bound); !done(); s.quiet.Wait() {
		if time.Now().After(deadline) {
			live := make([]string, len(s.actors))
			for i, fn := range s.actors {
				live[i] = runtime.FuncForPC(fn).Name()
			}
			slices.Sort(live)
			return fmt.Errorf("clock: an actor is still busy after %v of wall time (it spins, or blocks outside Wait); live: %s",
				bound, strings.Join(live, ", "))
		}
	}
	return nil
}

// ready reports whether a receive from one of chs would not block.
func ready(chs []any) bool {
	return slices.ContainsFunc(chs, func(c any) bool {
		ch := reflect.ValueOf(c)
		if ch.Len() > 0 || ch.Cap() > 0 || ch.IsNil() {
			return ch.Len() > 0
		}
		v, ok := ch.TryRecv()
		if ok {
			panic("clock: Wait took a value from an unbuffered channel: a channel an actor waits on is buffered, or only closed")
		}
		return v.IsValid() // closed
	})
}
