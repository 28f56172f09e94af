package stabilize

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
)

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, err := New(sim, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok := Check{Name: "x", Period: time.Second, Fn: func() error { return nil }}
	if err := s.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ok); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := s.Register(Check{Period: time.Second, Fn: func() error { return nil }}); err == nil {
		t.Fatal("unnamed check accepted")
	}
	if err := s.Register(Check{Name: "y", Period: time.Second}); err == nil {
		t.Fatal("fn-less check accepted")
	}
	if err := s.Register(Check{Name: "z", Fn: func() error { return nil }}); err == nil {
		t.Fatal("zero period accepted")
	}
	s.Start()
	defer s.Stop()
	if err := s.Register(Check{Name: "late", Period: time.Second, Fn: func() error { return nil }}); err == nil {
		t.Fatal("post-start registration accepted")
	}
}

func TestChecksRunOnTheirPeriods(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, _ := New(sim, nil)
	var fast, slow atomic.Int64
	mustRegister(t, s, Check{Name: "fast", Period: 20 * time.Second, Fn: func() error { fast.Add(1); return nil }})
	mustRegister(t, s, Check{Name: "slow", Period: time.Minute, Fn: func() error { slow.Add(1); return nil }})
	s.Start()
	defer s.Stop()
	sim.RunFor(300*time.Second, 10*time.Second)
	// 300s window: fast ~15 runs, slow ~5 runs (ticks may coalesce
	// slightly under scheduling jitter).
	if f := fast.Load(); f < 10 || f > 16 {
		t.Fatalf("fast ran %d times", f)
	}
	if sl := slow.Load(); sl < 3 || sl > 6 {
		t.Fatalf("slow ran %d times", sl)
	}
	if stats(t, s, "fast").Executions != fast.Load() {
		t.Fatal("Executions counter mismatch")
	}
}

func TestFailuresJournaledAndCounted(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	j := &faults.Journal{}
	s, _ := New(sim, j)
	boom := errors.New("boom")
	var healed atomic.Bool
	mustRegister(t, s, Check{Name: "c", Period: time.Second, Fn: func() error {
		if healed.Load() {
			return nil
		}
		return boom
	}, EscalateAfter: -1})
	if err := s.RunOnce("c"); !errors.Is(err, boom) {
		t.Fatalf("RunOnce = %v", err)
	}
	if got := stats(t, s, "c").Failures; got != 1 {
		t.Fatalf("Failures = %d", got)
	}
	if j.Len() != 1 {
		t.Fatal("violation not journaled")
	}
	healed.Store(true)
	if err := s.RunOnce("c"); err != nil {
		t.Fatalf("RunOnce after heal = %v", err)
	}
}

func TestEscalationAfterConsecutiveFailures(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	j := &faults.Journal{}
	var mu sync.Mutex
	var escalated []string
	s, _ := New(sim, j)
	fail := atomic.Bool{}
	fail.Store(true)
	mustRegister(t, s, Check{Name: "flaky", Period: time.Second, Fn: func() error {
		if fail.Load() {
			return errors.New("nope")
		}
		return nil
	}, Escalate: func(error) {
		mu.Lock()
		escalated = append(escalated, "flaky")
		mu.Unlock()
	}})
	// Two failures: below the default threshold of 3.
	_ = s.RunOnce("flaky")
	_ = s.RunOnce("flaky")
	mu.Lock()
	n := len(escalated)
	mu.Unlock()
	if n != 0 {
		t.Fatal("escalated too early")
	}
	// Third consecutive failure escalates, exactly once.
	_ = s.RunOnce("flaky")
	_ = s.RunOnce("flaky")
	mu.Lock()
	if len(escalated) != 1 || escalated[0] != "flaky" {
		t.Fatalf("escalated = %v", escalated)
	}
	mu.Unlock()
	if j.Count(faults.KindRejuvenation) != 1 {
		t.Fatal("escalation not journaled")
	}
	// Success resets the streak; three more failures escalate again.
	fail.Store(false)
	_ = s.RunOnce("flaky")
	fail.Store(true)
	_ = s.RunOnce("flaky")
	_ = s.RunOnce("flaky")
	_ = s.RunOnce("flaky")
	mu.Lock()
	defer mu.Unlock()
	if len(escalated) != 2 {
		t.Fatalf("escalated %d times, want 2", len(escalated))
	}
}

// TestEscalationRepeatsUntilHealed: an escalation that cannot act (a
// restart that fails) or does not cure must not be the last word — the
// callback runs again every EscalateAfter consecutive failures for as
// long as the streak lasts, and each call is counted.
func TestEscalationRepeatsUntilHealed(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	var broken atomic.Bool
	broken.Store(true)
	calls := 0
	escalate := func(error) {
		if calls++; calls == 3 { // the first two escalations do nothing
			broken.Store(false)
		}
	}
	s, _ := New(sim, nil)
	mustRegister(t, s, Check{Name: "stuck", Period: time.Second, EscalateAfter: 2, Escalate: escalate, Fn: func() error {
		if broken.Load() {
			return errors.New("still broken")
		}
		return nil
	}})
	for run, wantCalls := range []int{0, 1, 1, 2, 2, 3} {
		if err := s.RunOnce("stuck"); err == nil {
			t.Fatalf("run %d passed while broken", run)
		}
		if calls != wantCalls {
			t.Fatalf("after %d consecutive failures: %d escalations, want %d", run+1, calls, wantCalls)
		}
	}
	if err := s.RunOnce("stuck"); err != nil {
		t.Fatalf("run after the third escalation healed it: %v", err)
	}
	if got := s.Stats()[0]; got.Failures != 6 || got.Escalations != 3 || got.Heals != 1 {
		t.Fatalf("stats = %+v; want 6 failures, 3 escalations, 1 heal", got)
	}
	// "Never" still means never.
	mustRegister(t, s, Check{Name: "never", Period: time.Second, EscalateAfter: -1, Escalate: escalate, Fn: func() error { return errors.New("no") }})
	for i := 0; i < 7; i++ {
		_ = s.RunOnce("never")
	}
	if calls != 3 {
		t.Fatalf("a check with EscalateAfter -1 escalated (%d calls)", calls)
	}
}

// TestEscalateIsPerCheck: each check escalates through its own
// Escalate, and a check without one has its escalations counted but
// neither journaled as escalating nor handed to another check's.
func TestEscalateIsPerCheck(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	j := &faults.Journal{}
	s, _ := New(sim, j)
	var a, b int
	fail := func() error { return errors.New("down") }
	mustRegister(t, s, Check{Name: "a", Period: time.Second, EscalateAfter: 1, Fn: fail, Escalate: func(error) { a++ }})
	mustRegister(t, s, Check{Name: "b", Period: time.Second, EscalateAfter: 1, Fn: fail, Escalate: func(error) { b++ }})
	mustRegister(t, s, Check{Name: "quiet", Period: time.Second, EscalateAfter: 1, Fn: fail})
	_ = s.RunOnce("a")
	_ = s.RunOnce("b")
	_ = s.RunOnce("b")
	_ = s.RunOnce("quiet")
	if a != 1 || b != 2 {
		t.Fatalf("escalations: a %d, b %d; want 1, 2", a, b)
	}
	if got := stats(t, s, "quiet").Escalations; got != 1 {
		t.Fatalf("quiet escalations = %d, want 1 (counted)", got)
	}
	if n := j.CountMatching(faults.KindRejuvenation, `"quiet"`); n != 0 {
		t.Fatalf("a check without Escalate journaled %d escalations", n)
	}
	if n := j.Count(faults.KindRejuvenation); n != 3 {
		t.Fatalf("%d escalations journaled, want 3", n)
	}
}

func TestStatsCountsHealsAndEscalations(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, _ := New(sim, nil)
	fail := atomic.Bool{}
	mustRegister(t, s, Check{Name: "steady", Period: time.Second, Fn: func() error { return nil }})
	mustRegister(t, s, Check{Name: "flaky", Period: time.Second, EscalateAfter: 2, Fn: func() error {
		if fail.Load() {
			return errors.New("nope")
		}
		return nil
	}})

	_ = s.RunOnce("steady")
	// Streak 1: two failures (escalates at 2), healed by a pass.
	fail.Store(true)
	_ = s.RunOnce("flaky")
	_ = s.RunOnce("flaky")
	fail.Store(false)
	_ = s.RunOnce("flaky")
	// Streak 2: one failure, healed — no escalation.
	fail.Store(true)
	_ = s.RunOnce("flaky")
	fail.Store(false)
	_ = s.RunOnce("flaky")

	stats := s.Stats()
	if len(stats) != 2 || stats[0].Name != "steady" || stats[1].Name != "flaky" {
		t.Fatalf("Stats() = %+v (want registration order)", stats)
	}
	if got := stats[0]; got.Executions != 1 || got.Failures != 0 || got.Heals != 0 || got.Escalations != 0 {
		t.Fatalf("steady stats = %+v", got)
	}
	if got := stats[1]; got.Executions != 5 || got.Failures != 3 || got.Heals != 2 || got.Escalations != 1 {
		t.Fatalf("flaky stats = %+v", got)
	}
}

func TestRunOnceUnknown(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, _ := New(sim, nil)
	if err := s.RunOnce("ghost"); err == nil {
		t.Fatal("unknown check accepted")
	}
}

func TestStopHaltsChecks(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, _ := New(sim, nil)
	var runs atomic.Int64
	mustRegister(t, s, Check{Name: "c", Period: time.Second, Fn: func() error { runs.Add(1); return nil }})
	s.Start()
	sim.Advance(5 * time.Second)
	s.Stop()
	s.Stop() // idempotent
	before := runs.Load()
	sim.Advance(time.Minute)
	if runs.Load() != before {
		t.Fatal("check ran after Stop")
	}
}

// TestWaitHoldsUntilChecksAreGone: Stop returns at once — an escalation
// may call it from inside a check — and Wait is what says the plane is
// gone: it holds while a check is still inside its Fn.
func TestWaitHoldsUntilChecksAreGone(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	s, _ := New(sim, nil)
	var entered atomic.Bool
	release := make(chan struct{})
	mustRegister(t, s, Check{Name: "slow", Period: time.Second, Fn: func() error {
		entered.Store(true)
		clock.Wait(sim, release)
		return nil
	}})
	mustRegister(t, s, Check{Name: "idle", Period: time.Hour, Fn: func() error { return nil }})
	s.Start()
	if !sim.RunUntil(entered.Load, time.Second, time.Minute) {
		t.Fatal("check never ran")
	}
	s.Stop() // must not wait for the check blocked in Fn
	waited := make(chan struct{})
	go func() { s.Wait(); close(waited) }()
	sim.Advance(time.Second)
	select {
	case <-waited:
		t.Fatal("Wait returned while a check was still inside Fn")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	clock.Notify(sim, release)
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait still blocked after the last check returned")
	}
}

func TestProgress(t *testing.T) {
	var p Progress
	now := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	if !p.StaleBy(now, time.Minute) {
		t.Fatal("fresh Progress should be stale")
	}
	p.Beat(now)
	if p.StaleBy(now.Add(30*time.Second), time.Minute) {
		t.Fatal("stale too early")
	}
	if !p.StaleBy(now.Add(2*time.Minute), time.Minute) {
		t.Fatal("not stale after maxAge")
	}
	// Beats never move backwards.
	p.Beat(now.Add(-time.Hour))
	if !p.Last().Equal(now) {
		t.Fatalf("Last() = %v", p.Last())
	}
}

// TestProgressNotStaleAfterConcurrentBeats: beats racing from several
// goroutines leave the newest, whatever order their stores land in.
func TestProgressNotStaleAfterConcurrentBeats(t *testing.T) {
	var p Progress
	now := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	const goroutines, beats = 4, 1000
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range beats {
				p.Beat(now.Add(time.Duration(i*goroutines+g) * time.Millisecond))
			}
		}()
	}
	wg.Wait()
	newest := now.Add((goroutines*beats - 1) * time.Millisecond)
	if !p.Last().Equal(newest) || p.StaleBy(newest, 0) {
		t.Fatalf("Last() = %v after concurrent beats, want %v", p.Last(), newest)
	}
}

func mustRegister(t *testing.T, s *Stabilizer, c Check) {
	t.Helper()
	if err := s.Register(c); err != nil {
		t.Fatal(err)
	}
}

// stats returns the named check's counters.
func stats(t *testing.T, s *Stabilizer, name string) CheckStats {
	t.Helper()
	for _, cs := range s.Stats() {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("no check named %q", name)
	return CheckStats{}
}
