// Package clock provides an abstraction over time so that every SIMBA
// component can run either against the real wall clock or against a
// discrete-event simulated clock.
//
// The paper's evaluation spans a one-month deployment and reports
// end-to-end latencies between 1 and 11 seconds. Reproducing those
// numbers against the wall clock would make the test suite take weeks,
// so all components take a Clock and all latencies are measured in
// virtual time. The Sim implementation advances time only when the
// harness asks it to, firing timers in deadline order, and runs each
// fired event to completion before the next (actor.go).
package clock

import "time"

// Clock is the minimal surface of package time that SIMBA components use.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d of (possibly virtual) time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc schedules f to run in its own goroutine after d.
	AfterFunc(d time.Duration, f func()) Timer
	// Go runs f in a new goroutine: on a Sim, an actor (actor.go).
	Go(f func())
	// NewTicker returns a ticker that fires every d. d must be positive.
	NewTicker(d time.Duration) Ticker
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer mirrors *time.Timer behind an interface so simulated timers can
// stand in for real ones.
type Timer interface {
	// C returns the channel on which the firing time is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the stop
	// prevented a fire, with the same caveats as (*time.Timer).Stop.
	Stop() bool
	// Reset re-arms the timer to fire after d.
	Reset(d time.Duration) bool
}

// Ticker mirrors *time.Ticker behind an interface.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time
	// Stop turns off the ticker. Stop does not close C.
	Stop()
}
