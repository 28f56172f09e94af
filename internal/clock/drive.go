package clock

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// A Sim's driver moves virtual time one stride at a time, and each
// event runs to completion before time moves on (JBotSim's pulse):
// before and after every Advance the driver waits until no goroutine
// but the caller is runnable, running, in a system call or preempted.
// A goroutine a fired timer woke has then armed its next timer,
// answered its call or finished its fsync, however much real time that
// took. A goroutine parked on a channel, a lock or a timer counts as
// quiet, a real-clock one too, so code in the simulated world waits on
// its Sim. Between the events inside one Advance, the Sim still yields
// settleRounds times instead of checking.
const (
	// quietBound bounds, in wall time, each wait for quiet and Drive's
	// wait for its function.
	quietBound = 30 * time.Second
	// quietPoll is how long a wait for quiet sleeps between checks.
	quietPoll = 100 * time.Microsecond
)

// busyStates are the goroutine states, as a stack dump prints them, of
// a goroutine that has not parked.
var busyStates = [][]byte{[]byte(" [runnable"), []byte(" [running"), []byte(" [syscall"), []byte(" [preempted")}

// Step waits until every goroutine but the caller has parked, advances
// the clock by d, and waits again, so what the fired timers woke has
// run to its next wait when Step returns. It panics with a dump of
// every goroutine if one stays busy for quietBound: in a simulated
// world that is a goroutine that spins or runs on the real clock, a
// bug. Like Advance, Step must not be called concurrently with itself.
func (s *Sim) Step(d time.Duration) {
	s.mustQuiet()
	s.advanceQuiet(d)
}

// RunFor steps the clock forward by total, one stride at a time.
func (s *Sim) RunFor(total, stride time.Duration) {
	s.mustQuiet()
	for elapsed := time.Duration(0); elapsed < total; elapsed += stride {
		s.advanceQuiet(stride)
	}
}

// RunUntil steps the clock one stride at a time until cond holds or
// max of virtual time has passed, and reports whether cond held. cond
// must not wait on virtual time.
func (s *Sim) RunUntil(cond func() bool, stride, max time.Duration) bool {
	s.mustQuiet()
	for elapsed := time.Duration(0); elapsed < max; elapsed += stride {
		if cond() {
			return true
		}
		s.advanceQuiet(stride)
	}
	return cond()
}

// Drive runs fn in its own goroutine and steps the clock one stride at
// a time until fn returns: the way to call something that waits on
// virtual time. It fails if fn has not returned within quietBound of
// wall time; fn may then still be running, so the caller must not read
// what fn writes.
func (s *Sim) Drive(fn func(), stride time.Duration) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	deadline := time.Now().Add(quietBound)
	s.mustQuiet()
	for {
		select {
		case <-done:
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("clock: Drive: function did not return within %v of wall time", quietBound)
		}
		s.advanceQuiet(stride)
	}
}

// advanceQuiet is Step after its first wait: the drivers' loops have
// already waited at the end of their previous stride.
func (s *Sim) advanceQuiet(d time.Duration) {
	s.Advance(d)
	s.mustQuiet()
}

// mustQuiet waits for quiet, and panics if it does not come.
func (s *Sim) mustQuiet() {
	if err := s.waitQuiet(quietBound); err != nil {
		panic(err)
	}
}

// waitQuiet waits until no goroutine but the caller is busy, polling
// every quietPoll. After bound it fails with a dump of every goroutine.
func (s *Sim) waitQuiet(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for s.othersBusy() {
		if time.Now().After(deadline) {
			return fmt.Errorf("clock: a goroutine is still busy after %v of wall time:\n%s", bound, s.dump)
		}
		time.Sleep(quietPoll)
	}
	return nil
}

// othersBusy dumps every goroutine into s.dump, the caller's first, and
// reports whether another one is busy. The buffer grows until the dump
// fits: a cut dump could end before the busy goroutine.
func (s *Sim) othersBusy() bool {
	if s.dump == nil {
		s.dump = make([]byte, 64<<10)
	}
	n := runtime.Stack(s.dump[:cap(s.dump)], true)
	for n == cap(s.dump) {
		s.dump = make([]byte, 2*cap(s.dump))
		n = runtime.Stack(s.dump, true)
	}
	s.dump = s.dump[:n]
	_, others, _ := bytes.Cut(s.dump, []byte("\n\n"))
	for _, state := range busyStates {
		if bytes.Contains(others, state) {
			return true
		}
	}
	return false
}
