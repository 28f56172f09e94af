package hub

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/faults"
	"simba/internal/mab"
	"simba/internal/plog"
)

// faultySink counts per-(user, key) deliveries across hub incarnations
// and fails every delivery while failing is set — the permanently-down
// substrate the guaranteed tier exists for.
type faultySink struct {
	failing atomic.Bool

	mu     sync.Mutex
	counts map[string]int
}

func newFaultySink(failing bool) *faultySink {
	s := &faultySink{counts: make(map[string]int)}
	s.failing.Store(failing)
	return s
}

func (s *faultySink) Deliver(shard int, user string, a *alert.Alert) error {
	if s.failing.Load() {
		return errors.New("substrate down")
	}
	s.mu.Lock()
	s.counts[user+"/"+a.DedupKey()]++
	s.mu.Unlock()
	return nil
}

func (s *faultySink) count(user, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[user+"/"+key]
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// outboxTestConfig is the shared two-incarnation config: one shard, a
// tight in-memory attempt budget, and a fast outbox.
func outboxTestConfig(t *testing.T, dir string, sink *faultySink, journal *faults.Journal) Config {
	t.Helper()
	return Config{
		Clock:               clock.NewReal(),
		Channels:            sinkChannels(sink.Deliver),
		WALPath:             filepath.Join(dir, "hub.wal"),
		OutboxPath:          filepath.Join(dir, "hub.outbox"),
		OutboxBackoff:       5 * time.Millisecond,
		OutboxBackoffCap:    20 * time.Millisecond,
		Shards:              1,
		DeliveryMaxAttempts: 2,
		DeliveryBackoff:     time.Millisecond,
		DeliveryBackoffCap:  2 * time.Millisecond,
		Journal:             journal,
	}
}

// addGuaranteedUser hosts user-0 at the guaranteed tier.
func addGuaranteedUser(t *testing.T, h *Hub) *Buddy {
	t.Helper()
	b, err := h.AddUser("user-0")
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b.Pipeline().Aggregator.Map("stocks", "Investment")
	if err := b.SetTier(core.TierGuaranteed); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHubGuaranteedOutboxRedeliversAfterRestart is the clean
// cross-restart path: a guaranteed alert exhausts its in-memory budget
// against a down substrate and is handed to the outbox; the hub shuts
// down mid-outbox-backoff; the next incarnation loads the envelope and
// redelivers it exactly once — nothing replays from the ingest WAL
// (ownership transferred), nothing is lost, and the third incarnation
// finds both journals clean.
func TestHubGuaranteedOutboxRedeliversAfterRestart(t *testing.T) {
	dir := t.TempDir()
	sink := newFaultySink(true)
	journal := &faults.Journal{}
	cfg := outboxTestConfig(t, dir, sink, journal)

	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h1)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	clk := cfg.Clock
	a := portalAlert(0, clk.Now())
	if err := h1.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "outbox handoff", func() bool { return h1.Counters().Get("outbox-handoffs") == 1 })
	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h1.Stats()
	if st.Outbox == nil || st.Outbox.Pending != 1 {
		t.Fatalf("outbox stats after drain = %+v, want 1 pending", st.Outbox)
	}
	if got := st.Tiers[core.TierGuaranteed].Lost; got != 0 {
		t.Fatalf("guaranteed lost = %d before restart, want 0", got)
	}
	if got := h1.Counters().Get("undeliverable"); got != 0 {
		t.Fatalf("undeliverable = %d for a guaranteed alert, want 0 (handed off, not dropped)", got)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 0 {
		t.Fatalf("pre-restart deliveries = %d, want 0", got)
	}

	// Substrate healed; the next incarnation owes the alert.
	sink.failing.Store(false)
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h2)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != 0 {
		t.Fatalf("WAL replayed = %d, want 0 (the outbox owns the alert)", got)
	}
	waitCond(t, "outbox redelivery", func() bool { return h2.Outbox().Redelivered() == 1 })
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 1 {
		t.Fatalf("deliveries after recovery = %d, want exactly 1", got)
	}
	st2 := h2.Stats()
	if got := st2.Tiers[core.TierGuaranteed].Delivered; got != 1 {
		t.Fatalf("guaranteed delivered = %d, want 1", got)
	}
	if got := st2.Tiers[core.TierGuaranteed].Lost; got != 0 {
		t.Fatalf("guaranteed lost = %d, want 0", got)
	}
	if st2.Outbox.Loaded != 1 || st2.Outbox.Pending != 0 {
		t.Fatalf("outbox stats = %+v, want loaded 1, pending 0", st2.Outbox)
	}
	if journal.Count(faults.KindOutbox) == 0 {
		t.Fatal("no outbox journal entries recorded")
	}

	// Third incarnation: both journals clean, nothing resurrects.
	h3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h3)
	if err := h3.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h3.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h3.Counters().Get("replayed") + h3.Stats().Outbox.Loaded; got != 0 {
		t.Fatalf("third incarnation recovered %d entries, want 0", got)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 1 {
		t.Fatalf("deliveries after third incarnation = %d, want still 1", got)
	}
}

// TestHubGuaranteedCrashInHandoffWindowDedups drives the faults-driven
// kill through the handoff window: the envelope is durable in the
// outbox but the ingest WAL entry was never retired, so the next
// incarnation is owed the alert by BOTH logs. It must deliver from
// both — the WAL replay and the outbox redelivery — and the duplicate
// is exactly the one the timestamp dedup contract detects downstream;
// nothing is lost.
func TestHubGuaranteedCrashInHandoffWindowDedups(t *testing.T) {
	dir := t.TempDir()
	sink := newFaultySink(true)
	journal := &faults.Journal{}
	crash := faults.NewFlag("crash-after-outbox-put")
	cfg := outboxTestConfig(t, dir, sink, journal)
	cfg.Fault = crashAt(FaultAfterOutboxPut, crash)

	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h1)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	crash.Set(true, cfg.Clock.Now())
	a := portalAlert(0, cfg.Clock.Now())
	if err := h1.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h1.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not die after fault injection")
	}
	if got := h1.Counters().Get("outbox-handoffs"); got != 1 {
		t.Fatalf("outbox handoffs = %d, want 1 (the crash fires after the put)", got)
	}
	if got := journal.Count(faults.KindFaultInjected); got != 1 {
		t.Fatalf("fault-injected journal entries = %d, want 1", got)
	}

	// Recovery: both logs own the alert; substrate healed.
	crash.Set(false, cfg.Clock.Now())
	sink.failing.Store(false)
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h2)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed"); got != 1 {
		t.Fatalf("WAL replayed = %d, want 1 (the DONE record never landed)", got)
	}
	waitCond(t, "outbox redelivery", func() bool { return h2.Outbox().Redelivered() == 1 })
	waitCond(t, "replayed delivery", func() bool { return sink.count("user-0", a.DedupKey()) >= 2 })
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	// Exactly-once after dedup: two raw deliveries of ONE dedup key —
	// the receiver-side audit collapses them by Created timestamp.
	if got := sink.count("user-0", a.DedupKey()); got != 2 {
		t.Fatalf("raw deliveries = %d, want exactly 2 (WAL replay + outbox redelivery)", got)
	}
	st := h2.Stats()
	if got := st.Tiers[core.TierGuaranteed].Lost; got != 0 {
		t.Fatalf("guaranteed lost = %d, want 0", got)
	}
	if st.Outbox.Pending != 0 {
		t.Fatalf("outbox pending = %d after recovery, want 0", st.Outbox.Pending)
	}
	// Both journals clean for the next incarnation.
	l, err := plog.Open(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if un := l.Unprocessed(); len(un) != 0 {
		t.Fatalf("%d unprocessed WAL entries after recovery", len(un))
	}
}

// TestHubBestEffortDropsAreCountedNotResurrected is the companion
// contract: a best-effort alert that exhausts its attempt budget is
// dropped and counted — and stays dropped across a restart, never
// reaching the outbox or the replay path.
func TestHubBestEffortDropsAreCountedNotResurrected(t *testing.T) {
	dir := t.TempDir()
	sink := newFaultySink(true)
	cfg := outboxTestConfig(t, dir, sink, nil)

	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Default tier: best-effort, the historical semantics.
	b, err := h1.AddUser("user-0")
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b.Pipeline().Aggregator.Map("stocks", "Investment")
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	a := portalAlert(0, cfg.Clock.Now())
	if err := h1.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h1.Stats()
	if got := st.Tiers[core.TierBestEffort].Lost; got != 1 {
		t.Fatalf("best-effort lost = %d, want 1 (dropped but counted)", got)
	}
	if got := h1.Counters().Get("undeliverable"); got != 1 {
		t.Fatalf("undeliverable = %d, want 1", got)
	}
	if got := st.OutboxHandoffs; got != 0 {
		t.Fatalf("outbox handoffs = %d for best-effort, want 0", got)
	}
	if st.Outbox.Pending != 0 {
		t.Fatalf("outbox pending = %d for best-effort, want 0", st.Outbox.Pending)
	}

	// Restart with a healthy substrate: the drop is final — no WAL
	// replay, no outbox resurrection.
	sink.failing.Store(false)
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := h2.AddUser("user-0")
	if err != nil {
		t.Fatal(err)
	}
	b2.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b2.Pipeline().Aggregator.Map("stocks", "Investment")
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := h2.Counters().Get("replayed") + h2.Stats().Outbox.Loaded; got != 0 {
		t.Fatalf("best-effort drop resurrected: %d recovered entries", got)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 0 {
		t.Fatalf("dropped alert delivered %d times after restart, want 0", got)
	}
}

// TestHubOutboxEscalatesToBackupChannel is the escalation property
// test: a guaranteed tenant's primary channel (IM) is permanently
// down, so after EscalateEvery exhausted outbox rounds the envelope's
// offset advances past the IM block and redelivery runs the mode's
// backup (email) block directly. When email heals, the alert lands
// there — and the successful redelivery's fallback trace matches what
// the buddy path's core.Executor produces for the same escalated
// (sliced) mode, extending the hub/buddy differential contract to
// outbox redeliveries.
func TestHubOutboxEscalatesToBackupChannel(t *testing.T) {
	const user = "user-0"
	clk := clock.NewReal()
	var emailDown atomic.Bool
	emailDown.Store(true)

	// IM is always down; email heals mid-test.
	mkChannels := func() *core.Channels {
		return core.NewChannels().
			Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
				return core.SendResult{}, errors.New("im endpoint offline")
			})).
			Register(addr.TypeEmail, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
				if emailDown.Load() {
					return core.SendResult{}, errors.New("email relay offline")
				}
				return core.SendResult{Confirmed: true}, nil
			}))
	}

	var mu sync.Mutex
	var successTrace *fallbackTrace
	h := newTestHub(t, Config{
		Clock:               clk,
		Channels:            mkChannels(),
		Shards:              1,
		DeliveryMaxAttempts: 1, // first execution exhausts the budget → outbox
		OutboxPath:          filepath.Join(t.TempDir(), "hub.outbox"),
		OutboxBackoff:       2 * time.Millisecond,
		OutboxBackoffCap:    10 * time.Millisecond,
		OutboxEscalateEvery: 2,
		OnDelivery: func(u string, rep *core.Report, err error) {
			if err == nil && rep != nil {
				tr := traceOf(rep)
				mu.Lock()
				successTrace = &tr
				mu.Unlock()
			}
		},
	})
	b, err := h.AddUser(user)
	if err != nil {
		t.Fatal(err)
	}
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b.Pipeline().Aggregator.Map("stocks", "Investment")
	profile := modeProfile(t, user, 10*time.Millisecond)
	b.SetProfile(profile)
	if err := b.SubscribeTier("Investment", "IMThenEmail", core.TierGuaranteed); err != nil {
		t.Fatal(err)
	}
	if got := b.Tier("Investment"); got != core.TierGuaranteed {
		t.Fatalf("subscription tier = %v, want guaranteed", got)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(user, portalAlert(0, clk.Now())); err != nil {
		t.Fatal(err)
	}

	// Both channels down: the first execution fails every block and the
	// envelope enters the outbox; after 2 exhausted rounds it escalates
	// past the dead IM block.
	waitCond(t, "channel escalation", func() bool { return h.Outbox().Escalated() >= 1 })
	emailDown.Store(false)
	waitCond(t, "redelivery via backup channel", func() bool { return h.Outbox().Redelivered() == 1 })

	mu.Lock()
	got := successTrace
	mu.Unlock()
	if got == nil {
		t.Fatal("no successful delivery trace captured")
	}

	// Differential reference: the buddy path's executor running the
	// same escalated plan (the mode sliced past the IM block) against
	// the same channel fates must make the same decisions.
	acks := core.NewAcks(clk)
	exec, err := core.NewExecutor(clk, mkChannels(), acks)
	if err != nil {
		t.Fatal(err)
	}
	mode, err := profile.Mode("IMThenEmail")
	if err != nil {
		t.Fatal(err)
	}
	escalated := *mode
	escalated.Blocks = mode.Blocks[1:]
	routed := portalAlert(0, clk.Now())
	routed.Keywords = []string{"Investment"}
	rep, err := exec.DeliverAs(core.DeliveryContext{User: user}, routed, profile.Addresses(), &escalated)
	if err != nil {
		t.Fatal(err)
	}
	want := traceOf(rep)
	if *got != want {
		t.Fatalf("escalated redelivery trace %+v != buddy executor trace %+v", *got, want)
	}
	if want.viaType != addr.TypeEmail || want.blocks != "0:ok" {
		t.Fatalf("buddy reference trace = %+v, want single-block email success", want)
	}

	st := h.Stats()
	if got := st.Tiers[core.TierGuaranteed].Escalated; got < 1 {
		t.Fatalf("guaranteed escalations = %d, want >= 1", got)
	}
	if got := st.Tiers[core.TierGuaranteed].Delivered; got != 1 {
		t.Fatalf("guaranteed delivered = %d, want 1", got)
	}
	if got := st.DeliveredByChannel[addr.TypeEmail]; got != 1 {
		t.Fatalf("delivered via email = %d, want 1", got)
	}
}

// TestHubOutboxJournalCompacts pins the outbox's "disk stays O(pending)"
// promise on the hub's configuration: the outbox journal inherits the
// WAL's segment size and checkpoint cadence, so a guaranteed alert that
// sits behind a down substrate for many rounds — each round a Replace,
// two journal records — is compacted as it goes instead of leaving every
// round on disk for the next Open to replay.
func TestHubOutboxJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	sink := newFaultySink(true)
	cfg := outboxTestConfig(t, dir, sink, nil)
	cfg.OutboxBackoff = time.Millisecond
	cfg.OutboxBackoffCap = 2 * time.Millisecond
	cfg.WALCheckpointEvery = 8
	cfg.WALSegmentBytes = 1 << 10 // a few rounds per segment

	h1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h1)
	if err := h1.Start(); err != nil {
		t.Fatal(err)
	}
	a := portalAlert(0, cfg.Clock.Now())
	if err := h1.Submit("user-0", a); err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	waitCond(t, "outbox rounds", func() bool { return h1.Stats().Outbox.Rounds >= rounds })
	waitCond(t, "outbox checkpoint", func() bool { return h1.Stats().Outbox.Log.Checkpoints >= 1 })
	// Uncompacted, 50 rounds of ~200-byte records fill ten or more 1 KiB
	// segments; compacted every 8 records, only the newest stay.
	if ob := h1.Stats().Outbox; ob.Log.Segments > 3 {
		t.Fatalf("outbox journal holds %d segments after %d rounds (%d checkpoints), want <= 3",
			ob.Log.Segments, ob.Rounds, ob.Log.Checkpoints)
	}

	sink.failing.Store(false)
	waitCond(t, "outbox redelivery", func() bool { return h1.Outbox().Redelivered() == 1 })
	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}

	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h2)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if ob := h2.Stats().Outbox; ob.Pending != 0 || ob.Loaded != 0 {
		t.Fatalf("reopened outbox = %+v, want nothing pending or loaded", ob)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 1 {
		t.Fatalf("deliveries = %d, want exactly 1", got)
	}
}
