package hub

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/faults"
	"simba/internal/hub/hubtest"
	"simba/internal/mab"
)

// addUsers registers n tenants user-0..n-1 as hostPortal does.
func addUsers(t testing.TB, h *Hub, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		hostPortal(t, h, fmt.Sprintf("user-%d", i))
	}
}

func portalAlert(i int, at time.Time) *alert.Alert {
	return &alert.Alert{
		ID:       fmt.Sprintf("a-%d", i),
		Source:   "portal",
		Keywords: []string{"stocks"},
		Subject:  "quote update",
		Body:     "MSFT moved",
		Urgency:  alert.UrgencyNormal,
		Created:  at,
	}
}

// sinkChannels wraps f — one call per routed alert, the flat
// substrate's shape — as the addr.TypeSink channel of a fresh registry.
func sinkChannels(f func(shard int, user string, a *alert.Alert) error) *core.Channels {
	return core.NewChannels().Register(addr.TypeSink, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
		if err := f(req.Shard, req.User, req.Alert); err != nil {
			return core.SendResult{}, err
		}
		return core.SendResult{Confirmed: true}, nil
	}))
}

func newTestHub(t testing.TB, cfg Config) *Hub {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.WALPath == "" {
		cfg.WALPath = filepath.Join(t.TempDir(), "hub.wal")
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Drain() })
	return h
}

// checkOutboxLedger asserts the outbox's ledger on h: every envelope
// handed off or loaded was redelivered, dropped, or is still pending.
func checkOutboxLedger(t *testing.T, h *Hub) {
	t.Helper()
	st := h.Outbox().Stats()
	if in, out := st.Puts+st.Loaded, st.Redelivered+st.Dropped+int64(st.Pending); in != out {
		t.Fatalf("outbox ledger: handed off %d + loaded %d != redelivered %d + dropped %d + pending %d",
			st.Puts, st.Loaded, st.Redelivered, st.Dropped, st.Pending)
	}
}

// crashAt is a Config.fault that crashes the hub at point while flag is
// active.
func crashAt(point faultPoint, flag *faults.Flag) func(faultPoint, int, <-chan struct{}) bool {
	return func(p faultPoint, _ int, _ <-chan struct{}) bool { return p == point && flag.Active() }
}

// routeGate wedges routing for wedgeAt: while armed, a worker whose
// envelope reaches faultRoute reports on hit and parks until the gate
// is released or the worker's generation is killed.
type routeGate struct {
	mu   sync.Mutex
	hold chan struct{} // non-nil while armed
	hit  chan struct{}
}

func newRouteGate() *routeGate { return &routeGate{hit: make(chan struct{}, 1)} }

func (g *routeGate) arm() {
	g.mu.Lock()
	g.hold = make(chan struct{})
	g.mu.Unlock()
}

// disarm stops further workers from parking; one already parked stays
// parked until its generation is killed.
func (g *routeGate) disarm() {
	g.mu.Lock()
	g.hold = nil
	g.mu.Unlock()
}

// release disarms and lets every parked worker go on.
func (g *routeGate) release() {
	g.mu.Lock()
	close(g.hold)
	g.hold = nil
	g.mu.Unlock()
}

// wedgeAt is a Config.fault that parks shard's routing steps (every
// shard's when shard is negative) at gate.
func wedgeAt(shard int, gate *routeGate) func(faultPoint, int, <-chan struct{}) bool {
	return func(p faultPoint, id int, killed <-chan struct{}) bool {
		if p != faultRoute || (shard >= 0 && id != shard) {
			return false
		}
		gate.mu.Lock()
		hold := gate.hold
		gate.mu.Unlock()
		if hold != nil {
			select {
			case gate.hit <- struct{}{}:
			default:
			}
			select {
			case <-hold:
			case <-killed:
			}
		}
		return false
	}
}

func TestHubRoutesThousandsOfTenants(t *testing.T) {
	const users, perUser = 1000, 3
	clk := clock.NewReal()
	sink := hubtest.NewSimSink(dist.NewRNG(7), 8, 0)
	h := newTestHub(t, Config{Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink), Shards: 8, queueDepth: 512})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < users*perUser; i += 16 {
				user := fmt.Sprintf("user-%d", i%users)
				a := portalAlert(i, clk.Now())
				for {
					err := h.Submit(user, a)
					var over *OverloadError
					if errors.As(err, &over) {
						time.Sleep(over.RetryAfter)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sink.Delivered(); got != users*perUser {
		t.Fatalf("delivered %d, want %d", got, users*perUser)
	}
	if got := h.Counters().Get("routed"); got != users*perUser {
		t.Fatalf("routed %d, want %d", got, users*perUser)
	}
	st := h.Stats()
	if st.Users != users {
		t.Fatalf("Stats.Users = %d", st.Users)
	}
	for _, sh := range st.Shards {
		if sh.Depth != 0 {
			t.Fatalf("shard %d depth %d after drain", sh.Shard, sh.Depth)
		}
	}
}

// TestHubIdleSubmitDoesNotWaitOutCommitWindow: the commit window is an
// upper bound on batching under load, not a tax on an idle hub — a
// lone Submit wakes a parked committer, which commits at once. The
// window is 30 s so that waiting it out cannot pass for slowness; the
// hub-level twin of plog's TestAdaptiveIdleFiresImmediately, with the
// previous alert's lazily staged DONE mark in the picture.
func TestHubIdleSubmitDoesNotWaitOutCommitWindow(t *testing.T) {
	h := newTestHub(t, Config{
		Channels:     sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		CommitWindow: 30 * time.Second,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := h.Submit("user-0", portalAlert(i, start)); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("idle submit %d took %v, want immediate (commit window 30s)", i, el)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHubGroupCommitCutsFsyncs(t *testing.T) {
	const users, alerts = 200, 3000
	clk := clock.NewReal()
	sink := hubtest.NewSimSink(dist.NewRNG(3), 4, 0)
	h := newTestHub(t, Config{
		Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink), Shards: 4, queueDepth: 1024,
		CommitWindow: time.Millisecond,
	})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < alerts; i += 64 {
				user := fmt.Sprintf("user-%d", i%users)
				a := portalAlert(i, clk.Now())
				for {
					err := h.Submit(user, a)
					var over *OverloadError
					if errors.As(err, &over) {
						time.Sleep(over.RetryAfter)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	appends, syncs := st.Appends, st.Syncs
	if appends != alerts*2 {
		t.Fatalf("WAL appends = %d, want %d (RECV+DONE per alert)", appends, alerts*2)
	}
	// Per-append plog would fsync once per append. The acceptance bar
	// is ≥10× fewer fsyncs per alert.
	if ratio := float64(appends) / float64(syncs); ratio < 10 {
		t.Fatalf("group commit ratio %.1f appends/fsync (syncs=%d), want >= 10", ratio, syncs)
	}
}

func TestHubBackpressureRejectsBeforeLogging(t *testing.T) {
	clk := clock.NewReal()
	release := make(chan struct{})
	var mu sync.Mutex
	deliveredKeys := make(map[string]int)
	sink := sinkChannels(func(shard int, user string, a *alert.Alert) error {
		<-release
		mu.Lock()
		deliveredKeys[user+"/"+a.DedupKey()]++
		mu.Unlock()
		return nil
	})
	h := newTestHub(t, Config{Clock: clk, Channels: sink, Shards: 1, queueDepth: 3})
	b, err := h.AddUser("solo")
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	// Fill the admission slots (the chain blocks on the gated sink), then overfill.
	var acked []*alert.Alert
	var overloads int
	for i := 0; i < 10; i++ {
		a := portalAlert(i, clk.Now())
		err := h.Submit("solo", a)
		var over *OverloadError
		switch {
		case err == nil:
			acked = append(acked, a)
		case errors.As(err, &over):
			overloads++
			if over.RetryAfter <= 0 {
				t.Fatalf("overload with no retry hint: %+v", over)
			}
			// Invariant: a rejected alert was never logged, so the
			// sender's retry cannot be treated as a duplicate.
			if h.wal.Has("solo" + keySep + a.DedupKey()) {
				t.Fatalf("rejected alert %s was logged", a.DedupKey())
			}
		default:
			t.Fatal(err)
		}
	}
	if overloads == 0 {
		t.Fatal("queue depth 3 never overloaded across 10 submits")
	}
	if len(acked) == 0 {
		t.Fatal("no submits admitted")
	}
	close(release)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged alert was delivered — no silent drops.
	mu.Lock()
	defer mu.Unlock()
	for _, a := range acked {
		if deliveredKeys["solo/"+a.DedupKey()] != 1 {
			t.Fatalf("acked alert %s delivered %d times, want 1",
				a.DedupKey(), deliveredKeys["solo/"+a.DedupKey()])
		}
	}
	if got := h.Counters().Get("rejects-overload"); got != int64(overloads) {
		t.Fatalf("rejects-overload counter = %d, want %d", got, overloads)
	}
}

func TestHubDuplicateSubmitIsIdempotent(t *testing.T) {
	clk := clock.NewReal()
	sink := hubtest.NewSimSink(dist.NewRNG(5), 2, 0)
	h := newTestHub(t, Config{Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink), Shards: 2})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	a := portalAlert(1, clk.Now())
	if err := h.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	// The sender's ack got lost; it resends the same alert.
	if err := h.Submit("user-0", a); err != nil {
		t.Fatalf("duplicate submit = %v, want nil (idempotent re-ack)", err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h.Counters().Get("duplicates"); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	if got := sink.DeliveryCount("user-0", a.DedupKey()); got != 1 {
		t.Fatalf("duplicate submit delivered %d times, want 1", got)
	}
}

func TestHubRejectsUnknownUserAndInvalidAlert(t *testing.T) {
	clk := clock.NewReal()
	h := newTestHub(t, Config{Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, hubtest.NewSimSink(dist.NewRNG(1), 1, 0)), Shards: 1})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("nobody", portalAlert(1, clk.Now())); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user error = %v", err)
	}
	if err := h.Submit("user-0", &alert.Alert{}); err == nil {
		t.Fatal("invalid alert accepted")
	}
}

func TestHubNotAcceptingBeforeStartAndAfterDrain(t *testing.T) {
	clk := clock.NewReal()
	h := newTestHub(t, Config{Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, hubtest.NewSimSink(dist.NewRNG(1), 1, 0)), Shards: 1})
	addUsers(t, h, 1)
	if err := h.Submit("user-0", portalAlert(1, clk.Now())); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("pre-start submit = %v, want ErrNotAccepting", err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-0", portalAlert(2, clk.Now())); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("post-drain submit = %v, want ErrNotAccepting", err)
	}
}

func TestHubTenantIsolationByPipeline(t *testing.T) {
	clk := clock.NewReal()
	sink := hubtest.NewSimSink(dist.NewRNG(9), 2, 0)
	h := newTestHub(t, Config{Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink), Shards: 2})
	accepts, err := h.AddUser("accepts")
	if err != nil {
		t.Fatal(err)
	}
	accepts.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	if _, err := h.AddUser("rejects"); err != nil {
		t.Fatal(err) // pipeline left empty: accepts nothing
	}
	quiet, err := h.AddUser("quiet")
	if err != nil {
		t.Fatal(err)
	}
	quiet.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	quiet.Pipeline().Filter.SetEnabled(mab.DefaultCategory, false)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for i, user := range []string{"accepts", "rejects", "quiet"} {
		if err := h.Submit(user, portalAlert(i, clk.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if delivered, routed := sink.Delivered(), h.Counters().Get("routed"); delivered != 1 || routed != 1 {
		t.Fatalf("delivered=%d routed=%d, want 1 and 1 (tenant accepts only)", delivered, routed)
	}
	if got := h.Counters().Get("rejected"); got != 1 {
		t.Fatalf("rejected = %d, want 1 (tenant with empty classifier)", got)
	}
	if got := h.Counters().Get("filtered"); got != 1 {
		t.Fatalf("filtered = %d, want 1 (tenant with disabled category)", got)
	}
	// All three are marked processed either way — verdicts are final.
	if un := h.wal.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed after drain", len(un))
	}
}

func TestHubAddUserValidation(t *testing.T) {
	h := newTestHub(t, Config{Clock: clock.NewReal(), Channels: core.NewChannels().Register(addr.TypeSink, hubtest.NewSimSink(dist.NewRNG(1), 1, 0))})
	if _, err := h.AddUser(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := h.AddUser("bad\x1fuser"); err == nil {
		t.Fatal("reserved separator accepted")
	}
	if _, err := h.AddUser("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddUser("dup"); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Clock: clock.NewReal(), Channels: core.NewChannels().Register(addr.TypeSink, hubtest.NewSimSink(dist.NewRNG(1), 1, 0))}); err == nil {
		t.Fatal("missing WALPath accepted")
	}
}
