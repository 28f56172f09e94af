package clock

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// RunFor advances the clock by total, one stride at a time.
func (s *Sim) RunFor(total, stride time.Duration) {
	for elapsed := time.Duration(0); elapsed < total; elapsed += stride {
		s.Advance(stride)
	}
}

// RunUntil advances the clock one stride at a time until cond holds or
// max of virtual time has passed, and reports whether cond held. cond
// runs while no actor is busy, and must not wait on virtual time.
func (s *Sim) RunUntil(cond func() bool, stride, max time.Duration) bool {
	s.Advance(0)
	for elapsed := time.Duration(0); !cond(); elapsed += stride {
		if elapsed >= max {
			return false
		}
		s.Advance(stride)
	}
	return true
}

// Drive runs fn as an actor and advances the clock one stride at a time
// until fn returns: the way to call something that waits on virtual
// time. It fails if fn has not returned within quietBound of wall time;
// fn may then still be running, so the caller must not read what fn
// writes.
func (s *Sim) Drive(fn func(), stride time.Duration) error {
	var done atomic.Bool
	s.Go(func() { defer done.Store(true); fn() })
	deadline := time.Now().Add(quietBound)
	if !s.RunUntil(func() bool { return done.Load() || time.Now().After(deadline) }, stride, math.MaxInt64) || !done.Load() {
		return fmt.Errorf("clock: Drive: function did not return within %v of wall time", quietBound)
	}
	return nil
}
