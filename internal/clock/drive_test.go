package clock

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spin keeps the calling goroutine busy, never parking, until stop is
// set.
func spin(stop *atomic.Bool) {
	for !stop.Load() {
	}
}

// A goroutine a timer woke works 5 ms of real time, never parking,
// before it arms its next timer. Step returns only once that timer is armed, so RunFor
// fires it at its virtual deadline; advancing and then sleeping a blind
// millisecond moves the clock on while the goroutine still works, and
// its next wake comes a stride late.
func TestStepWaitsForWokenGoroutine(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	fired := make(chan time.Time, 2)
	go func() {
		for range 2 {
			fired <- <-s.After(time.Second)
			for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			}
		}
	}()
	s.Step(time.Second)
	if got := s.Waiters(); got != 1 {
		t.Fatalf("after Step %d timers are armed, want 1: the woken goroutine's next", got)
	}
	s.RunFor(time.Second, 250*time.Millisecond)
	for i, want := range []time.Time{start.Add(time.Second), start.Add(2 * time.Second)} {
		select {
		case got := <-fired:
			if !got.Equal(want) {
				t.Fatalf("wake %d at %v, want %v", i, got.Sub(start), want.Sub(start))
			}
		default:
			t.Fatalf("wake %d never came", i)
		}
	}
}

// The wait for quiet is bounded, and it fails with a dump that names
// the goroutine that never parked.
func TestStepFailsWithDumpOfBusyGoroutine(t *testing.T) {
	s := NewSim(time.Time{})
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		spin(&stop)
	}()
	err := s.waitQuiet(50 * time.Millisecond)
	stop.Store(true)
	<-done
	if err == nil {
		t.Fatal("waitQuiet returned while a goroutine spun")
	}
	if !strings.Contains(err.Error(), "clock.spin(") {
		t.Fatalf("the failure does not name the spinning goroutine:\n%v", err)
	}
	if err := s.waitQuiet(quietBound); err != nil {
		t.Fatalf("waitQuiet after the spinner stopped: %v", err)
	}
}

// Drive steps until its function returns, and no further; RunUntil
// stops at its condition or at its virtual bound.
func TestDriveStepsUntilFunctionReturns(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var woke time.Time
	if err := s.Drive(func() { woke = <-s.After(3 * time.Second) }, time.Second); err != nil {
		t.Fatal(err)
	}
	if want := start.Add(3 * time.Second); !woke.Equal(want) || !s.Now().Equal(want) {
		t.Fatalf("woke at %v, clock at %v, want both at 3s", woke.Sub(start), s.Since(start))
	}
	if !s.RunUntil(func() bool { return s.Since(start) >= 5*time.Second }, time.Second, time.Minute) {
		t.Fatal("RunUntil missed a condition inside its bound")
	}
	if got := s.Since(start); got != 5*time.Second {
		t.Fatalf("RunUntil stopped at %v, want 5s", got)
	}
	if s.RunUntil(func() bool { return false }, time.Second, 10*time.Second) {
		t.Fatal("RunUntil reported a condition that never held")
	}
	if got := s.Since(start); got != 15*time.Second {
		t.Fatalf("RunUntil ran to %v, want its 10s bound (15s)", got)
	}
}
