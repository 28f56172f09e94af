package timewheel

import (
	"sync"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/race"
)

// fired reports whether the timer has a fire waiting right now — the
// check for "must NOT have fired".
func fired(t *Timer) bool {
	select {
	case <-t.C():
		return true
	default:
		return false
	}
}

// waitFired is the check for "must have fired" on the simulated clock.
// Sim runs the wheel's driver (a clock.AfterFunc) as its own goroutine,
// so the fire can trail Advance's return — under -race on a small host
// it routinely does. The wait is bounded in real time. On a fire it also
// takes the wheel lock once (Pending), so the driver pass that sent the
// fire has re-armed for the next deadline before the caller advances
// the clock again.
func waitFired(w *Wheel, t *Timer) bool {
	select {
	case <-t.C():
		w.Pending()
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func TestWheelFiresAtExactSimDeadline(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := w.After(50 * time.Millisecond)
	defer w.Release(tm)

	sim.Advance(49 * time.Millisecond)
	if fired(tm) {
		t.Fatal("timer fired 1ms early")
	}
	sim.Advance(1 * time.Millisecond)
	if !waitFired(w, tm) {
		t.Fatal("timer did not fire at its exact deadline")
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after fire, want 0", got)
	}
}

func TestWheelMultiplexesManyDeadlines(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{Slots: 8})
	const n = 100
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = w.After(time.Duration(i+1) * time.Millisecond)
	}
	if got := w.Pending(); got != n {
		t.Fatalf("pending = %d, want %d", got, n)
	}
	// Advance one millisecond at a time: exactly one timer fires per step.
	for i := 0; i < n; i++ {
		sim.Advance(time.Millisecond)
		if !waitFired(w, timers[i]) {
			t.Fatalf("timer %d did not fire at +%dms", i, i+1)
		}
		for j := i + 1; j < n; j++ {
			if fired(timers[j]) {
				t.Fatalf("timer %d fired early at +%dms", j, i+1)
			}
		}
	}
	for _, tm := range timers {
		w.Release(tm)
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after all fires, want 0", got)
	}
}

func TestWheelReleaseCancelsAndRecycles(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := w.After(10 * time.Millisecond)
	w.Release(tm)
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after release, want 0", got)
	}
	sim.Advance(20 * time.Millisecond)
	if fired(tm) {
		t.Fatal("released timer still fired")
	}
	// The node is recycled: the next After reuses it, with a clean channel.
	tm2 := w.After(5 * time.Millisecond)
	if tm2 != tm {
		t.Fatal("expected the released node to be recycled")
	}
	if fired(tm2) {
		t.Fatal("recycled node came back with a stale fire buffered")
	}
	sim.Advance(5 * time.Millisecond)
	if !waitFired(w, tm2) {
		t.Fatal("recycled node did not fire")
	}
	w.Release(tm2)
}

func TestWheelImmediateFire(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := w.After(0)
	if !fired(tm) {
		t.Fatal("After(0) did not fire immediately")
	}
	w.Release(tm)
	tm = w.After(-time.Second)
	if !fired(tm) {
		t.Fatal("After(<0) did not fire immediately")
	}
	w.Release(tm)
}

func TestWheelPoisonScribblesOnRelease(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{Poison: true})
	tm := w.After(time.Millisecond)
	w.Release(tm)
	if tm.when.Unix() != -1<<40 {
		t.Fatalf("poisoned node's deadline = %v, want the poison sentinel", tm.when)
	}
	// Recycling must still produce a working timer.
	tm2 := w.After(time.Millisecond)
	sim.Advance(time.Millisecond)
	if !waitFired(w, tm2) {
		t.Fatal("recycled poisoned node did not fire")
	}
	w.Release(tm2)
}

// TestWheelSteadyStateAllocs pins the arm/release cycle at zero
// allocations once the node pool and driver are warm. Runs on the real
// clock: the simulated clock allocates a heap event per re-arm by
// design.
func TestWheelSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	w := New(clock.Real{}, Options{})
	// Warm up: allocate the node and the driver.
	w.Release(w.After(time.Hour))
	if n := testing.AllocsPerRun(200, func() {
		tm := w.After(time.Hour)
		w.Release(tm)
	}); n != 0 {
		t.Fatalf("arm/release allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tm := w.After(0)
		<-tm.C()
		w.Release(tm)
	}); n != 0 {
		t.Fatalf("immediate fire allocates %.1f per run, want 0", n)
	}
}

// TestWheelConcurrent hammers the wheel from many goroutines under
// short real-clock deadlines; run under -race this is the wheel's data
// race gate.
func TestWheelConcurrent(t *testing.T) {
	w := New(clock.Real{}, Options{Slots: 16, Poison: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tm := w.After(time.Duration(i%7) * 100 * time.Microsecond)
				if i%3 == 0 {
					// Abandon some waits without consuming the fire.
					w.Release(tm)
					continue
				}
				<-tm.C()
				w.Release(tm)
			}
		}(g)
	}
	wg.Wait()
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after quiesce, want 0", got)
	}
}
