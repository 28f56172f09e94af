package clock

import (
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(time.Time{})
	if got := s.Now(); !got.Equal(defaultEpoch) {
		t.Fatalf("Now() = %v, want %v", got, defaultEpoch)
	}
}

func TestSimNowCustomStart(t *testing.T) {
	start := time.Date(2000, 11, 7, 0, 0, 0, 0, time.UTC)
	s := NewSim(start)
	if got := s.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestSimAdvanceMovesNow(t *testing.T) {
	s := NewSim(time.Time{})
	start := s.Now()
	s.Advance(42 * time.Second)
	if got := s.Since(start); got != 42*time.Second {
		t.Fatalf("advanced %v, want 42s", got)
	}
}

func TestSimTimerFiresAtDeadline(t *testing.T) {
	s := NewSim(time.Time{})
	tm := s.NewTimer(5 * time.Second)
	s.Advance(4 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before deadline")
	default:
	}
	s.Advance(time.Second)
	select {
	case when := <-tm.C():
		if want := s.Now(); !when.Equal(want) {
			t.Fatalf("fired at %v, want %v", when, want)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(time.Time{})
	tm := s.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	s.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestSimTimerReset(t *testing.T) {
	s := NewSim(time.Time{})
	tm := s.NewTimer(time.Second)
	if !tm.Reset(10 * time.Second) {
		t.Fatal("Reset on active timer should report true")
	}
	s.Advance(5 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("reset timer fired early")
	default:
	}
	s.Advance(5 * time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
}

func TestSimAfterFuncRuns(t *testing.T) {
	s := NewSim(time.Time{})
	var ran atomic.Bool
	s.AfterFunc(time.Minute, func() { ran.Store(true) })
	s.Advance(59 * time.Second)
	if ran.Load() {
		t.Fatal("AfterFunc ran early")
	}
	s.Advance(time.Second)
	if !ran.Load() {
		t.Fatal("AfterFunc did not run by its deadline")
	}
}

func TestSimSleepWakes(t *testing.T) {
	s := NewSim(time.Time{})
	var done atomic.Bool
	s.Go(func() {
		s.Sleep(3 * time.Second)
		done.Store(true)
	})
	s.Advance(3 * time.Second)
	if !done.Load() {
		t.Fatal("sleeper did not wake")
	}
}

func TestSimTickerTicks(t *testing.T) {
	s := NewSim(time.Time{})
	tk := s.NewTicker(10 * time.Second)
	var ticks atomic.Int32
	stop := make(chan struct{})
	s.Go(func() {
		for {
			Wait(s, tk.C(), stop)
			select {
			case <-tk.C():
				ticks.Add(1)
			case <-stop:
				return
			}
		}
	})
	for i := 0; i < 5; i++ {
		s.Advance(10 * time.Second)
	}
	if got := ticks.Load(); got != 5 {
		t.Fatalf("got %d ticks over 50s of a 10s ticker, want 5", got)
	}
	tk.Stop()
	close(stop)
	Notify(s, stop)
	s.Advance(0)
	if s.Actors() != 0 {
		t.Fatal("the consumer did not exit on stop")
	}
	before := ticks.Load()
	s.Advance(time.Minute)
	if ticks.Load() != before {
		t.Fatal("ticker ticked after Stop")
	}
}

func TestSimTickerSelfReschedulesWithoutConsumer(t *testing.T) {
	// Even with nobody reading C(), the ticker must keep itself in the
	// queue (ticks coalesce, as with time.Ticker).
	s := NewSim(time.Time{})
	tk := s.NewTicker(time.Second)
	defer tk.Stop()
	s.Advance(10 * time.Second)
	if s.Waiters() == 0 {
		t.Fatal("ticker fell out of the queue")
	}
	select {
	case <-tk.C():
	default:
		t.Fatal("no tick buffered")
	}
}

func TestSimDeadlineOrdering(t *testing.T) {
	s := NewSim(time.Time{})
	var order []int
	for i, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		s.AfterFunc(d, func() { order = append(order, i) })
	}
	s.Advance(10 * time.Second)
	if want := []int{1, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

func TestSimSameDeadlineFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	var order []int
	for i := 0; i < 8; i++ {
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.Advance(time.Second)
	if len(order) != 8 || !sort.IntsAreSorted(order) {
		t.Fatalf("same-deadline events fired out of scheduling order: %v", order)
	}
}

func TestSimChainedTimersWithinOneAdvance(t *testing.T) {
	// A goroutine woken mid-window schedules a follow-up timer that also
	// lands inside the window; one AdvanceTo must fire both.
	s := NewSim(time.Time{})
	var done atomic.Bool
	s.Go(func() {
		s.Sleep(time.Second)
		s.Sleep(time.Second)
		done.Store(true)
	})
	s.Advance(5 * time.Second)
	if !done.Load() {
		t.Fatal("chained sleeper did not complete")
	}
}

func TestSimNowMonotonicDuringAdvance(t *testing.T) {
	s := NewSim(time.Time{})
	var stamps []time.Time
	for i := 1; i <= 20; i++ {
		s.AfterFunc(time.Duration(i)*time.Second, func() { stamps = append(stamps, s.Now()) })
	}
	s.Advance(25 * time.Second)
	if len(stamps) != 20 {
		t.Fatalf("%d of 20 callbacks ran", len(stamps))
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i].Before(stamps[i-1]) {
			t.Fatalf("Now() went backwards: %v after %v", stamps[i], stamps[i-1])
		}
	}
}

func TestSimWaitersCount(t *testing.T) {
	s := NewSim(time.Time{})
	t1 := s.NewTimer(time.Second)
	t2 := s.NewTimer(2 * time.Second)
	if got := s.Waiters(); got != 2 {
		t.Fatalf("Waiters() = %d, want 2", got)
	}
	t1.Stop()
	if got := s.Waiters(); got != 1 {
		t.Fatalf("Waiters() after Stop = %d, want 1", got)
	}
	s.Advance(2 * time.Second)
	if got := s.Waiters(); got != 0 {
		t.Fatalf("Waiters() after fire = %d, want 0", got)
	}
	_ = t2
}

func TestSimAdvancePropertyAllTimersBeforeTargetFire(t *testing.T) {
	// Property: after AdvanceTo(T), every timer with deadline <= T has
	// fired and none with deadline > T has.
	f := func(delaysMs []uint16, windowMs uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		if len(delaysMs) > 64 {
			delaysMs = delaysMs[:64]
		}
		s := NewSim(time.Time{})
		window := time.Duration(windowMs) * time.Millisecond
		fired := make([]atomic.Bool, len(delaysMs))
		deadlines := make([]time.Duration, len(delaysMs))
		for i, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			deadlines[i] = d
			i := i
			s.AfterFunc(d, func() { fired[i].Store(true) })
		}
		s.Advance(window)
		for i := range fired {
			if fired[i].Load() != (deadlines[i] <= window) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	before := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(before) <= 0 {
		t.Fatal("real clock did not move")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(time.Second):
		t.Fatal("real ticker did not tick")
	}
	ran := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc did not run")
	}
}

// Property: splitting an Advance into two pieces fires exactly the
// same timers — time advancement is associative.
func TestSimAdvanceSplitProperty(t *testing.T) {
	f := func(delaysMs []uint16, splitMs uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		if len(delaysMs) > 32 {
			delaysMs = delaysMs[:32]
		}
		run := func(split bool) []bool {
			s := NewSim(time.Time{})
			fired := make([]atomic.Bool, len(delaysMs))
			for i, ms := range delaysMs {
				i := i
				s.AfterFunc(time.Duration(ms)*time.Millisecond, func() { fired[i].Store(true) })
			}
			total := 70 * time.Second
			if split {
				s.Advance(time.Duration(splitMs) * time.Millisecond)
				s.Advance(total - time.Duration(splitMs)*time.Millisecond)
			} else {
				s.Advance(total)
			}
			out := make([]bool, len(fired))
			for i := range fired {
				out[i] = fired[i].Load()
			}
			return out
		}
		a, b := run(false), run(true)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a timer fires at most once.
func TestSimTimerFiresOnceProperty(t *testing.T) {
	f := func(delayMs uint16, extraAdvances uint8) bool {
		s := NewSim(time.Time{})
		var fires atomic.Int32
		s.AfterFunc(time.Duration(delayMs)*time.Millisecond, func() { fires.Add(1) })
		for i := 0; i < int(extraAdvances%8)+2; i++ {
			s.Advance(40 * time.Second)
		}
		return fires.Load() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
