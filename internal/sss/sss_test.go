package sss

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

func newStore(t *testing.T) (*Store, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	s, err := NewStore(sim, "gateway")
	if err != nil {
		t.Fatal(err)
	}
	return s, sim
}

func sensorSpec() Spec {
	return Spec{Name: "home/basement/water", RefreshEvery: 10 * time.Second, MaxMissed: 2}
}

type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds() []EventKind {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]EventKind, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Kind
	}
	return out
}

func TestNewStoreValidation(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	if _, err := NewStore(nil, "x"); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewStore(sim, ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestDefineValidation(t *testing.T) {
	s, _ := newStore(t)
	for _, spec := range []Spec{
		{},
		{Name: "x"},
		{Name: "x", RefreshEvery: time.Second, MaxMissed: -1},
	} {
		if err := s.Define(spec); err == nil {
			t.Fatalf("invalid spec accepted: %+v", spec)
		}
	}
	if err := s.Define(sensorSpec()); err != nil {
		t.Fatal(err)
	}
	// Redefinition updates parameters.
	re := sensorSpec()
	re.MaxMissed = 5
	if err := s.Define(re); err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	if len(specs) != 1 || specs[0].MaxMissed != 5 {
		t.Fatalf("Specs = %+v", specs)
	}
}

func TestWriteReadLifecycle(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Write("ghost", "x"); !errors.Is(err, ErrUnknownVar) {
		t.Fatalf("Write(ghost) = %v", err)
	}
	if _, err := s.Read("ghost"); !errors.Is(err, ErrUnknownVar) {
		t.Fatalf("Read(ghost) = %v", err)
	}
	if err := s.Define(sensorSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(sensorSpec().Name); !errors.Is(err, ErrExpired) {
		t.Fatalf("Read before first write = %v", err)
	}
	if expired, _ := s.Expired(sensorSpec().Name); !expired {
		t.Fatal("unwritten variable not expired")
	}
	if err := s.Write(sensorSpec().Name, "OFF"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(sensorSpec().Name)
	if err != nil || got != "OFF" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestEventsFireOnChange(t *testing.T) {
	s, _ := newStore(t)
	var log eventLog
	s.Subscribe("home/", log.add)
	if err := s.Define(sensorSpec()); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, sensorSpec().Name, "OFF") // Created
	mustWrite(t, s, sensorSpec().Name, "OFF") // refresh, no event
	mustWrite(t, s, sensorSpec().Name, "ON")  // Updated
	want := []EventKind{EventCreated, EventUpdated}
	got := log.kinds()
	if len(got) != len(want) {
		t.Fatalf("events = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
}

func TestSubscribePrefixFiltering(t *testing.T) {
	s, _ := newStore(t)
	var home, all eventLog
	s.Subscribe("home/", home.add)
	id := s.Subscribe("", all.add)
	if err := s.Define(Spec{Name: "wish/u", RefreshEvery: time.Second, MaxMissed: 1}); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, "wish/u", "office")
	if len(home.kinds()) != 0 {
		t.Fatal("prefix subscription leaked")
	}
	if len(all.kinds()) != 1 {
		t.Fatal("catch-all subscription missed")
	}
	s.Unsubscribe(id)
	mustWrite(t, s, "wish/u", "lab")
	if len(all.kinds()) != 1 {
		t.Fatal("unsubscribed handler still fired")
	}
}

func TestExpiryAfterMissedRefreshes(t *testing.T) {
	s, sim := newStore(t)
	var log eventLog
	s.Subscribe("", log.add)
	if err := s.Define(sensorSpec()); err != nil { // 10s × (2+1) = 30s deadline
		t.Fatal(err)
	}
	mustWrite(t, s, sensorSpec().Name, "OFF")
	// Keep refreshing: no expiry.
	for i := 0; i < 5; i++ {
		sim.Step(10 * time.Second)
		if err := s.Refresh(sensorSpec().Name); err != nil {
			t.Fatal(err)
		}
	}
	if expired, _ := s.Expired(sensorSpec().Name); expired {
		t.Fatal("refreshed variable expired")
	}
	// Stop refreshing: expires at +30s.
	sim.Step(29 * time.Second)
	if expired, _ := s.Expired(sensorSpec().Name); expired {
		t.Fatal("expired before the deadline")
	}
	sim.Advance(2 * time.Second)
	waitFor(t, func() bool {
		expired, _ := s.Expired(sensorSpec().Name)
		return expired
	})
	if _, err := s.Read(sensorSpec().Name); !errors.Is(err, ErrExpired) {
		t.Fatalf("Read after expiry = %v", err)
	}
	kinds := log.kinds()
	if kinds[len(kinds)-1] != EventExpired {
		t.Fatalf("events = %v", kinds)
	}
	// A write revives the variable with a Created event.
	mustWrite(t, s, sensorSpec().Name, "ON")
	kinds = log.kinds()
	if kinds[len(kinds)-1] != EventCreated {
		t.Fatalf("events after revival = %v", kinds)
	}
}

func TestMulticastReplication(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	mc, err := NewMulticast(sim, dist.NewRNG(1), dist.Fixed(50*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	var stores []*Store
	for _, name := range []string{"pc1", "pc2", "gateway"} {
		s, err := NewStore(sim, name)
		if err != nil {
			t.Fatal(err)
		}
		mc.Join(s)
		stores = append(stores, s)
	}
	// Only pc1 defines the variable; replication carries the spec.
	if err := stores[0].Define(sensorSpec()); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, stores[0], sensorSpec().Name, "ON")
	sim.Advance(time.Second)
	for _, s := range stores[1:] {
		waitFor(t, func() bool {
			v, err := s.Read(sensorSpec().Name)
			return err == nil && v == "ON"
		})
	}
	if mc.Sent() != 2 {
		t.Fatalf("Sent = %d", mc.Sent())
	}
	// Remote applies do not re-replicate (no storm).
	sim.Advance(time.Second)
	if mc.Sent() != 2 {
		t.Fatalf("replication storm: Sent = %d", mc.Sent())
	}
}

func TestMulticastEventAtGateway(t *testing.T) {
	// The disarm scenario's plumbing: a write on the monitor PC fires
	// an event on the gateway store.
	sim := clock.NewSim(time.Time{})
	mc, _ := NewMulticast(sim, dist.NewRNG(1), dist.Fixed(100*time.Millisecond), 0)
	pc, _ := NewStore(sim, "monitor-pc")
	gw, _ := NewStore(sim, "gateway")
	mc.Join(pc)
	mc.Join(gw)
	var log eventLog
	gw.Subscribe("home/", log.add)
	if err := pc.Define(Spec{Name: "home/security/armed", RefreshEvery: time.Minute, MaxMissed: 3}); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, pc, "home/security/armed", "false")
	sim.Advance(time.Second)
	waitFor(t, func() bool { return len(log.kinds()) == 1 })
	log.mu.Lock()
	defer log.mu.Unlock()
	ev := log.events[0]
	if ev.Node != "gateway" || ev.Value != "false" || ev.Kind != EventCreated {
		t.Fatalf("gateway event = %+v", ev)
	}
}

func TestMulticastLossToleratedByRefresh(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	mc, err := NewMulticast(sim, dist.NewRNG(7), dist.Fixed(10*time.Millisecond), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewStore(sim, "src")
	dst, _ := NewStore(sim, "dst")
	mc.Join(src)
	mc.Join(dst)
	if err := src.Define(Spec{Name: "v", RefreshEvery: time.Second, MaxMissed: 1}); err != nil {
		t.Fatal(err)
	}
	// Repeated refreshes eventually get one through.
	mustWrite(t, src, "v", "x")
	for i := 0; i < 20; i++ {
		sim.Step(time.Second)
		if err := src.Refresh("v"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Second)
	waitFor(t, func() bool {
		v, err := dst.Read("v")
		return err == nil && v == "x"
	})
	if mc.Lost() == 0 {
		t.Fatal("no losses at p=0.5")
	}
}

func TestEventKindString(t *testing.T) {
	for _, tt := range []struct {
		k    EventKind
		want string
	}{
		{EventCreated, "created"}, {EventUpdated, "updated"},
		{EventExpired, "expired"}, {EventKind(9), "kind(9)"},
	} {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("String = %q", got)
		}
	}
}

// Property: a variable written at t and refreshed every r never
// expires while refreshes continue; once refreshes stop, it expires
// within (MaxMissed+1)×r.
func TestExpiryDeadlineProperty(t *testing.T) {
	f := func(refreshSecs, maxMissed uint8) bool {
		r := time.Duration(int(refreshSecs)%20+1) * time.Second
		mm := int(maxMissed) % 4
		sim := clock.NewSim(time.Time{})
		s, err := NewStore(sim, "n")
		if err != nil {
			return false
		}
		if err := s.Define(Spec{Name: "v", RefreshEvery: r, MaxMissed: mm}); err != nil {
			return false
		}
		if err := s.Write("v", "x"); err != nil {
			return false
		}
		deadline := r * time.Duration(mm+1)
		// Just before the deadline: alive.
		sim.Step(deadline - time.Millisecond)
		if expired, _ := s.Expired("v"); expired {
			return false
		}
		// Just after: expired.
		sim.Step(2 * time.Millisecond)
		expired, _ := s.Expired("v")
		return expired
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, s *Store, name, value string) {
	t.Helper()
	if err := s.Write(name, value); err != nil {
		t.Fatal(err)
	}
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
