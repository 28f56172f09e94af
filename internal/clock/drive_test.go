package clock

import (
	"slices"
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

// An actor a timer woke works 5 ms of real time, never parking, before
// it arms its next timer. Advance returns only once that timer is
// armed, so RunFor fires it at its virtual deadline; a clock that moved
// on while the actor still worked would wake it a stride late.
func TestStepWaitsForWokenGoroutine(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	fired := make(chan time.Time, 2)
	s.Go(func() {
		for range 2 {
			ch := s.After(time.Second)
			Wait(s, ch)
			fired <- <-ch
			for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			}
		}
	})
	s.Advance(time.Second)
	if got := s.Waiters(); got != 1 {
		t.Fatalf("after Advance %d timers are armed, want 1: the woken actor's next", got)
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

// An actor woken by another actor's Notify-ed send runs before time
// moves: the relay hands each tick on to the worker, which stamps it at
// the tick's own instant and arms its sleep there.
func TestNotifiedActorRunsBeforeTimeMoves(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	tk, relay := s.NewTicker(time.Second), make(chan struct{}, 1)
	var stamps []time.Duration
	s.Go(func() {
		for {
			Wait(s, tk.C())
			<-tk.C()
			relay <- struct{}{}
			Notify(s, relay)
		}
	})
	s.Go(func() {
		for {
			Wait(s, relay)
			<-relay
			stamps = append(stamps, s.Since(start))
			s.Sleep(100 * time.Millisecond)
		}
	})
	s.Advance(3 * time.Second)
	if want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}; !slices.Equal(stamps, want) || s.Waiters() != 2 {
		t.Fatalf("worker ran at %v with %d timers armed, want %v and 2: the ticker and the worker's sleep", stamps, s.Waiters(), want)
	}
	s.Close()
}

// The wait for quiet is bounded, and it fails naming the live actors:
// the one that never parks among them.
func TestStepFailsNamingBusyActor(t *testing.T) {
	s := NewSim(time.Time{})
	var stop atomic.Bool
	s.Go(func() { spin(&stop) })
	s.mu.Lock()
	err := s.awaitLocked(func() bool { return !s.running }, 50*time.Millisecond)
	s.mu.Unlock()
	stop.Store(true)
	if err == nil {
		t.Fatal("the wait for quiet returned while an actor spun")
	}
	if !strings.Contains(err.Error(), "clock.TestStepFailsNamingBusyActor.func1") {
		t.Fatalf("the failure does not name the spinning actor:\n%v", err)
	}
}

// A parked actor whose channel holds a value that no Notify announced
// is a lost wake, and the next quiet point panics naming its wait.
func TestQuietPanicsOnUnannouncedSend(t *testing.T) {
	s := NewSim(time.Time{})
	ch := make(chan int, 1)
	s.Go(func() {
		Wait(s, ch)
		<-ch
	})
	s.Advance(0)
	ch <- 1 // no Notify
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "TestQuietPanicsOnUnannouncedSend.func1") {
			t.Fatalf("recovered %q, want a panic naming the parked wait", msg)
		}
	}()
	s.Advance(0)
	t.Fatal("Advance did not panic")
}

// Close ends every actor: a parked one exits through Goexit, running
// its deferred calls.
func TestCloseEndsParkedActors(t *testing.T) {
	s := NewSim(time.Time{})
	var deferred atomic.Int32
	for range 3 {
		s.Go(func() {
			defer deferred.Add(1)
			s.Sleep(time.Hour)
			t.Error("a sleeper woke on a closed Sim")
		})
	}
	s.Advance(time.Minute)
	s.Close()
	if got, d := s.Actors(), deferred.Load(); got != 0 || d != 3 {
		t.Fatalf("after Close %d actors live and %d deferred calls ran, want 0 and 3", got, d)
	}
}

// Drive advances until its function returns, and no further; RunUntil
// stops at its condition or at its virtual bound.
func TestDriveStepsUntilFunctionReturns(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	var woke time.Time
	if err := s.Drive(func() {
		ch := s.After(3 * time.Second)
		Wait(s, ch)
		woke = <-ch
	}, time.Second); err != nil {
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
