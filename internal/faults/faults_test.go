package faults

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

func TestFlagLifecycle(t *testing.T) {
	f := NewFlag("im-outage")
	if f.Name() != "im-outage" {
		t.Fatalf("Name() = %q", f.Name())
	}
	if f.Active() {
		t.Fatal("new flag active")
	}
	if !f.ActiveSince().IsZero() {
		t.Fatal("inactive flag has ActiveSince")
	}
	at := time.Date(2001, 3, 26, 12, 0, 0, 0, time.UTC)
	f.Set(true, at)
	if !f.Active() || !f.ActiveSince().Equal(at) {
		t.Fatalf("after Set: active=%v since=%v", f.Active(), f.ActiveSince())
	}
	// Re-activating must not move the activation time.
	f.Set(true, at.Add(time.Hour))
	if !f.ActiveSince().Equal(at) {
		t.Fatal("re-activation moved ActiveSince")
	}
	f.Set(false, at.Add(2*time.Hour))
	if f.Active() {
		t.Fatal("flag still active after clear")
	}
}

func TestScheduleRunsInOrder(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	var got []string
	s := NewSchedule().
		At(3*time.Second, func() { got = append(got, "c") }).
		At(time.Second, func() { got = append(got, "a") }).
		At(2*time.Second, func() { got = append(got, "b") })
	if s.Len() != 3 {
		t.Fatalf("Len() = %d", s.Len())
	}
	s.Install(sim)
	sim.Advance(5 * time.Second)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
}

func TestScheduleNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchedule().At(time.Second, nil)
}

func TestWindowTogglesFlag(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	f := NewFlag("outage")
	NewSchedule().Window(sim, f, 10*time.Second, 30*time.Second).Install(sim)
	sim.Advance(5 * time.Second)
	if f.Active() {
		t.Fatal("flag active before window")
	}
	sim.Advance(10 * time.Second) // t=15s, inside window
	if !f.Active() {
		t.Fatal("flag inactive inside window")
	}
	sim.Advance(30 * time.Second) // t=45s, after window
	if f.Active() {
		t.Fatal("flag active after window")
	}
}

func TestJournalCounts(t *testing.T) {
	var j Journal
	base := time.Date(2001, 3, 26, 0, 0, 0, 0, time.UTC)
	j.Record(base, KindRelogin, "im client logged out")
	j.Recordf(base.Add(time.Minute), KindRelogin, "im client logged out again (%d)", 2)
	j.Record(base.Add(2*time.Minute), KindClientRestart, "im client hung")
	if j.Len() != 3 {
		t.Fatalf("Len() = %d", j.Len())
	}
	if got := j.Count(KindRelogin); got != 2 {
		t.Fatalf("Count(relogin) = %d", got)
	}
	if got := j.CountMatching(KindRelogin, "again"); got != 1 {
		t.Fatalf("CountMatching = %d", got)
	}
	entries := j.Entries()
	if len(entries) != 3 || entries[0].Kind != KindRelogin {
		t.Fatalf("Entries() = %v", entries)
	}
	if s := entries[0].String(); s == "" {
		t.Fatal("empty entry string")
	}
}

func TestJournalDowntimes(t *testing.T) {
	var j Journal
	base := time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC)
	j.Record(base, KindFaultInjected, "im-service outage")
	j.Record(base.Add(4*time.Minute), KindFaultCleared, "im-service outage")
	j.Record(base.Add(time.Hour), KindFaultInjected, "im-service outage")
	j.Record(base.Add(time.Hour+103*time.Minute), KindFaultCleared, "im-service outage")
	j.Record(base.Add(2*time.Hour), KindFaultInjected, "email outage") // different detail
	j.Record(base.Add(3*time.Hour), KindFaultInjected, "im-service outage")
	// last window never cleared
	got := j.Downtimes("im-service")
	if len(got) != 2 {
		t.Fatalf("Downtimes = %v", got)
	}
	if got[0] != 4*time.Minute || got[1] != 103*time.Minute {
		t.Fatalf("Downtimes = %v", got)
	}
}

func TestJournalConcurrent(t *testing.T) {
	var j Journal
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				j.Record(time.Time{}, KindReplay, "x")
			}
		}()
	}
	wg.Wait()
	if j.Len() != 800 {
		t.Fatalf("Len() = %d", j.Len())
	}
}

func TestJournalRingEvictsOldestKeepsCounts(t *testing.T) {
	j := NewRing(3)
	for i := 0; i < 5; i++ {
		j.Record(time.Unix(int64(i), 0), KindReplay, fmt.Sprintf("e%d", i))
	}
	entries := j.Entries()
	if len(entries) != 3 {
		t.Fatalf("retained %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if want := fmt.Sprintf("e%d", i+2); e.Detail != want {
			t.Fatalf("entry %d = %q, want %q (chronological order)", i, e.Detail, want)
		}
	}
	if j.Len() != 5 {
		t.Fatalf("Len() = %d, want all-time 5", j.Len())
	}
	if j.Count(KindReplay) != 5 {
		t.Fatalf("Count(replay) = %d, want all-time 5", j.Count(KindReplay))
	}
	if j.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", j.Dropped())
	}
	// CountMatching sees only retained entries, by contract.
	if got := j.CountMatching(KindReplay, "e0"); got != 0 {
		t.Fatalf("CountMatching found evicted entry %d times", got)
	}
}

func TestJournalRingPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestJournalRingConcurrent(t *testing.T) {
	j := NewRing(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				j.Record(time.Time{}, KindReplay, "x")
				j.Entries()
				j.Downtimes("x")
			}
		}()
	}
	wg.Wait()
	if j.Len() != 800 || len(j.Entries()) != 16 || j.Dropped() != 800-16 {
		t.Fatalf("Len=%d retained=%d dropped=%d", j.Len(), len(j.Entries()), j.Dropped())
	}
}

func TestRandomEventsReproducibleAndSorted(t *testing.T) {
	gen := func() []RandomEvent {
		return RandomEvents(dist.NewRNG(7), 24*time.Hour, map[string]float64{
			"crash": 10, "outage": 3, "zero": 0,
		})
	}
	a, b := gen(), gen()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different timelines")
		}
		if a[i].At < 0 || a[i].At >= 24*time.Hour {
			t.Fatalf("event outside horizon: %+v", a[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatal("events not sorted")
		}
		if a[i].Kind == "zero" {
			t.Fatal("zero-rate kind produced events")
		}
	}
	// Expected counts are approximately honored across seeds.
	total := 0
	for seed := int64(0); seed < 20; seed++ {
		total += len(RandomEvents(dist.NewRNG(seed), 24*time.Hour, map[string]float64{"crash": 10}))
	}
	mean := float64(total) / 20
	if mean < 6 || mean > 14 {
		t.Fatalf("mean event count %.1f, want ≈10", mean)
	}
}
