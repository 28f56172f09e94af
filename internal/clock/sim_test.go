package clock

import (
	"sort"
	"sync"
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
	waitTrue(t, &ran)
}

func TestSimSleepWakes(t *testing.T) {
	s := NewSim(time.Time{})
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Sleep(3 * time.Second)
		done.Store(true)
	}()
	s.Step(3 * time.Second)
	wg.Wait()
	if !done.Load() {
		t.Fatal("sleeper did not wake")
	}
}

func TestSimTickerTicks(t *testing.T) {
	s := NewSim(time.Time{})
	tk := s.NewTicker(10 * time.Second)
	var ticks atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-tk.C():
				ticks.Add(1)
			case <-stop:
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		s.Advance(10 * time.Second)
	}
	got := ticks.Load()
	if got < 4 || got > 5 {
		t.Fatalf("got %d ticks over 50s of a 10s ticker, want 4-5", got)
	}
	tk.Stop()
	close(stop)
	wg.Wait()
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
	var mu sync.Mutex
	var order []int
	for i, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		i := i
		s.AfterFunc(d, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Advance(10 * time.Second)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 3 })
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
}

func TestSimSameDeadlineFIFO(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.AfterFunc(time.Second, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Advance(time.Second)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 8 })
	mu.Lock()
	defer mu.Unlock()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-deadline events fired out of scheduling order: %v", order)
	}
}

func TestSimChainedTimersWithinOneAdvance(t *testing.T) {
	// A goroutine woken mid-window schedules a follow-up timer that also
	// lands inside the window; one AdvanceTo must fire both.
	s := NewSim(time.Time{})
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Sleep(time.Second)
		s.Sleep(time.Second)
		done.Store(true)
	}()
	s.Step(5 * time.Second)
	wg.Wait()
	if !done.Load() {
		t.Fatal("chained sleeper did not complete")
	}
}

func TestSimNowMonotonicDuringAdvance(t *testing.T) {
	s := NewSim(time.Time{})
	var mu sync.Mutex
	var stamps []time.Time
	for i := 1; i <= 20; i++ {
		d := time.Duration(i) * time.Second
		s.AfterFunc(d, func() {
			mu.Lock()
			stamps = append(stamps, s.Now())
			mu.Unlock()
		})
	}
	s.Advance(25 * time.Second)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(stamps) == 20 })
	mu.Lock()
	defer mu.Unlock()
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
		start := s.Now()
		window := time.Duration(windowMs) * time.Millisecond
		fired := make([]atomic.Bool, len(delaysMs))
		deadlines := make([]time.Duration, len(delaysMs))
		for i, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			deadlines[i] = d
			i := i
			s.AfterFunc(d, func() { fired[i].Store(true) })
		}
		s.AdvanceTo(start.Add(window))
		// AfterFunc goroutines are asynchronous; allow them to land.
		deadline := time.Now().Add(2 * time.Second)
		for {
			ok := true
			for i := range fired {
				want := deadlines[i] <= window
				if fired[i].Load() != want {
					ok = false
				}
			}
			if ok {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
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
	var ran atomic.Bool
	c.AfterFunc(time.Millisecond, func() { ran.Store(true) })
	waitTrue(t, &ran)
}

func waitTrue(t *testing.T, b *atomic.Bool) {
	t.Helper()
	waitFor(t, b.Load)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
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
			// Let AfterFunc goroutines land.
			deadline := time.Now().Add(time.Second)
			for {
				done := true
				for i, ms := range delaysMs {
					if time.Duration(ms)*time.Millisecond <= total && !fired[i].Load() {
						done = false
					}
				}
				if done || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
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
		deadline := time.Now().Add(time.Second)
		for fires.Load() == 0 && time.Now().After(deadline) == false {
			time.Sleep(time.Millisecond)
		}
		return fires.Load() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
