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

// probe is a wait that owns its Timer and is its own Waker, as the
// hub's waits are; a fire signals c — the tests' view of a fire.
type probe struct {
	Timer
	c chan struct{}
}

func (p *probe) Wake() { p.c <- struct{}{} }

// arm arms a probe d from now.
func arm(w *Wheel, d time.Duration) *probe {
	p := &probe{c: make(chan struct{}, 1)}
	w.Arm(&p.Timer, d, p)
	return p
}

// fired reports whether the probe has a fire waiting right now — the
// check for "must NOT have fired".
func fired(p *probe) bool {
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
func waitFired(w *Wheel, p *probe) bool {
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
	defer w.Release(&tm.Timer)

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
	w := New(sim, Options{})
	const n = 100
	timers := make([]*probe, n)
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
		w.Release(&tm.Timer)
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after all fires, want 0", got)
	}
}

func TestWheelReleaseCancels(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, 10*time.Millisecond)
	w.Release(&tm.Timer)
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after release, want 0", got)
	}
	sim.Advance(20 * time.Millisecond)
	if fired(tm) {
		t.Fatal("released timer still fired")
	}
	// A released Timer arms again, and fires at its new deadline only.
	w.Arm(&tm.Timer, 5*time.Millisecond, tm)
	sim.Advance(4 * time.Millisecond)
	if fired(tm) {
		t.Fatal("re-armed timer fired early")
	}
	sim.Advance(time.Millisecond)
	if !waitFired(w, tm) {
		t.Fatal("re-armed timer did not fire")
	}
	// Releasing a fired Timer does nothing, and it arms again too.
	w.Release(&tm.Timer)
	w.Arm(&tm.Timer, time.Millisecond, tm)
	sim.Advance(time.Millisecond)
	if !waitFired(w, tm) {
		t.Fatal("timer re-armed after its fire did not fire")
	}
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after the fires, want 0", got)
	}
}

// TestWheelArmOfArmedTimerPanics: a Timer is armed once at a time, and
// the wheel is still usable after the refused Arm.
func TestWheelArmOfArmedTimerPanics(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, time.Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Arm of an armed Timer did not panic")
			}
		}()
		w.Arm(&tm.Timer, time.Millisecond, tm)
	}()
	if got := w.Pending(); got != 1 {
		t.Fatalf("pending = %d after the refused Arm, want 1", got)
	}
	w.Release(&tm.Timer)
	w.Arm(&tm.Timer, time.Millisecond, tm)
	sim.Advance(time.Millisecond)
	if !waitFired(w, tm) {
		t.Fatal("timer re-armed after the refused Arm did not fire")
	}
}

func TestWheelImmediateFire(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	w := New(sim, Options{})
	tm := arm(w, 0)
	if !fired(tm) {
		t.Fatal("Arm(0) did not fire immediately")
	}
	w.Release(&tm.Timer)
	tm = arm(w, -time.Second)
	if !fired(tm) {
		t.Fatal("Arm(<0) did not fire immediately")
	}
	w.Release(&tm.Timer)
}

// TestWheelSteadyStateAllocs pins the arm/release cycle and an
// immediate fire at zero allocations once the driver is warm: the
// Timer is the caller's, and no channel or closure sits beside it. Runs
// on the real clock: the simulated clock allocates a heap event per
// re-arm by design.
func TestWheelSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	w := New(clock.Real{}, Options{})
	fires := 0
	fn := wakeFunc(func() { fires++ })
	var tm Timer
	// Warm up: allocate the driver.
	w.Arm(&tm, time.Hour, fn)
	w.Release(&tm)
	if n := testing.AllocsPerRun(200, func() {
		w.Arm(&tm, time.Hour, fn)
		w.Release(&tm)
	}); n != 0 {
		t.Fatalf("arm/release allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		w.Arm(&tm, 0, fn)
		w.Release(&tm)
	}); n != 0 || fires != 201 {
		t.Fatalf("immediate fire allocates %.1f per run and ran %d callbacks, want 0 and 201", n, fires)
	}
}

// TestWheelConcurrent hammers the wheel from many goroutines under
// short real-clock deadlines; run under -race this is the wheel's data
// race gate.
func TestWheelConcurrent(t *testing.T) {
	w := New(clock.Real{}, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &probe{c: make(chan struct{}, 1)}
			for i := 0; i < 200; i++ {
				w.Arm(&p.Timer, time.Duration(i%7)*100*time.Microsecond, p)
				if i%3 == 0 {
					// Abandon some waits without consuming the fire; once
					// Release returns the fire has run or never will.
					w.Release(&p.Timer)
					select {
					case <-p.c:
					default:
					}
					continue
				}
				<-p.c
				w.Release(&p.Timer)
			}
		}(g)
	}
	wg.Wait()
	if got := w.Pending(); got != 0 {
		t.Fatalf("pending = %d after quiesce, want 0", got)
	}
}
