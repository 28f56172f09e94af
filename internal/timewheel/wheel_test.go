package timewheel

import (
	"sync"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/race"
)

// wakeFunc is a func as a Waker.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }

// probe is a wait armed with Arm whose Waker signals c — the tests'
// view of a fire.
type probe struct {
	*Timer
	c chan struct{}
}

// arm arms a probe d from now.
func arm(w *Wheel, d time.Duration) probe {
	c := make(chan struct{}, 1)
	return probe{w.Arm(d, wakeFunc(func() { c <- struct{}{} })), c}
}

// fired reports whether the probe has a fire waiting right now — the
// check for "must NOT have fired".
func fired(p probe) bool {
	select {
	case <-p.c:
		return true
	default:
		return false
	}
}

// waitFired is the check for "must have fired" on the simulated clock.
// Sim runs the wheel's driver (a clock.AfterFunc) as its own goroutine,
// so the fire can trail Advance's return — under -race on a small host
// it routinely does. The wait is bounded in real time. On a fire it also
// takes the wheel lock once (Pending), so the driver pass that ran the
// fire has re-armed for the next deadline before the caller advances
// the clock again.
func waitFired(w *Wheel, p probe) bool {
	select {
	case <-p.c:
		w.Pending()
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func TestWheelFiresAtExactSimDeadline(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, 50*time.Millisecond)
	defer w.Release(tm.Timer)

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
	timers := make([]probe, n)
	for i := range timers {
		timers[i] = arm(w, time.Duration(i+1)*time.Millisecond)
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
		w.Release(tm.Timer)
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after all fires, want 0", got)
	}
}

func TestWheelReleaseCancelsAndRecycles(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, 10*time.Millisecond)
	w.Release(tm.Timer)
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after release, want 0", got)
	}
	sim.Advance(20 * time.Millisecond)
	if fired(tm) {
		t.Fatal("released timer still fired")
	}
	// The node is recycled: the next Arm reuses it, and its fire
	// runs the new callback, never the released one.
	tm2 := arm(w, 5*time.Millisecond)
	if tm2.Timer != tm.Timer {
		t.Fatal("expected the released node to be recycled")
	}
	sim.Advance(5 * time.Millisecond)
	if !waitFired(w, tm2) {
		t.Fatal("recycled node did not fire")
	}
	if fired(tm) {
		t.Fatal("recycled node ran its released callback")
	}
	w.Release(tm2.Timer)
}

func TestWheelImmediateFire(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, 0)
	if !fired(tm) {
		t.Fatal("Arm(0) did not fire immediately")
	}
	w.Release(tm.Timer)
	tm = arm(w, -time.Second)
	if !fired(tm) {
		t.Fatal("Arm(<0) did not fire immediately")
	}
	w.Release(tm.Timer)
}

func TestWheelPoisonScribblesOnRelease(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{Poison: true})
	tm := arm(w, time.Millisecond)
	w.Release(tm.Timer)
	if tm.when.Unix() != -1<<40 {
		t.Fatalf("poisoned node's deadline = %v, want the poison sentinel", tm.when)
	}
	// Recycling must still produce a working timer.
	tm2 := arm(w, time.Millisecond)
	sim.Advance(time.Millisecond)
	if !waitFired(w, tm2) {
		t.Fatal("recycled poisoned node did not fire")
	}
	w.Release(tm2.Timer)
}

// TestWheelSteadyStateAllocs pins the arm/release cycle at zero
// allocations once the node pool and driver are warm, and a fresh node
// at one: the node alone, no channel or closure beside it. Runs on the
// real clock: the simulated clock allocates a heap event per re-arm by
// design.
func TestWheelSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	w := New(clock.Real{}, Options{})
	fires := 0
	fn := wakeFunc(func() { fires++ })
	// Warm up: allocate the node and the driver.
	w.Release(w.Arm(time.Hour, fn))
	if n := testing.AllocsPerRun(200, func() {
		w.Release(w.Arm(time.Hour, fn))
	}); n != 0 {
		t.Fatalf("arm/release allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		w.Release(w.Arm(0, fn))
	}); n != 0 || fires != 201 {
		t.Fatalf("immediate fire allocates %.1f per run and ran %d callbacks, want 0 and 201", n, fires)
	}
	if n := testing.AllocsPerRun(200, func() {
		w.Arm(time.Hour, fn) // never released: each arm takes a fresh node
	}); n != 1 {
		t.Fatalf("a fresh node costs %.1f allocations, want 1", n)
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
			c := make(chan struct{}, 1)
			fn := wakeFunc(func() { c <- struct{}{} })
			for i := 0; i < 200; i++ {
				tm := w.Arm(time.Duration(i%7)*100*time.Microsecond, fn)
				if i%3 == 0 {
					// Abandon some waits without consuming the fire; once
					// Release returns the fire has run or never will.
					w.Release(tm)
					select {
					case <-c:
					default:
					}
					continue
				}
				<-c
				w.Release(tm)
			}
		}(g)
	}
	wg.Wait()
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after quiesce, want 0", got)
	}
}
