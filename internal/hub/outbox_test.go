package hub

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	"simba/internal/outbox"
	"simba/internal/plog"
	"simba/internal/race"
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
	checkOutboxLedger(t, h1)

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
	checkOutboxLedger(t, h2)

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
	checkOutboxLedger(t, h3)
}

// TestHubHandoffBatchCutsLeaveOneOwner cuts the WAL at every byte
// offset of a guaranteed handoff's Replace batch — the envelope's RECV
// run, then the DONE list retiring the alert's own entry — and recovers
// each image. Until the RECV run is whole the alert replays from its
// entry; from then on the envelope owns it, and an entry whose DONE was
// cut off is tombstoned as superseded. Every cut leaves exactly one
// owner: the alert is delivered exactly once, and nothing stays
// unprocessed.
func TestHubHandoffBatchCutsLeaveOneOwner(t *testing.T) {
	dir := t.TempDir()
	cfg := outboxTestConfig(t, dir, newFaultySink(true), nil)
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
	waitCond(t, "outbox handoff", func() bool { return h1.Counters().Get("outbox-handoffs") == 1 })
	h1.Kill()
	<-h1.Stopped()
	seg, err := os.ReadFile(cfg.WALPath + ".00000001.seg")
	if err != nil {
		t.Fatal(err)
	}
	// The segment's frames: the alert's RECV run, the handoff batch's RECV
	// run and DONE list, then failed rounds' batches.
	var ends []int
	for off := 8; off+4 <= len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		if n == 0 {
			break
		}
		off += 4 + n
		ends = append(ends, off)
	}
	if len(ends) < 3 || seg[ends[0]+4] != 'R' || seg[ends[1]+4] != 'D' {
		t.Fatalf("segment frames end at %v; want the alert's run, then the handoff's run and DONE list", ends)
	}
	for cut := ends[0]; cut <= ends[2]; cut++ {
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, "hub.wal.00000001.seg"), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sink := newFaultySink(false)
		c := outboxTestConfig(t, img, sink, nil)
		h, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		addGuaranteedUser(t, h)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		waitCond(t, "recovered delivery", func() bool { return sink.count("user-0", a.DedupKey()) >= 1 && h.WALBacklog() == 0 })
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := sink.count("user-0", a.DedupKey()); got != 1 {
			t.Fatalf("cut at byte %d of [%d, %d]: delivered %d times, want exactly 1", cut, ends[0], ends[2], got)
		}
		checkOutboxLedger(t, h)
		l, err := plog.Open(c.WALPath)
		if err != nil {
			t.Fatal(err)
		}
		if un := l.Unprocessed(); len(un) != 0 {
			t.Fatalf("cut at byte %d: %d records unprocessed after recovery", cut, len(un))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHubRestartShardKeepsOutboxEnvelopes: a shard restart scans the WAL
// for the shard's backlog, and the outbox's envelopes are in it. The scan
// must leave them alone — not replay one as an alert, not tombstone it as
// unparsable — so the envelope survives a crash after the restart and is
// redelivered exactly once.
func TestHubRestartShardKeepsOutboxEnvelopes(t *testing.T) {
	dir := t.TempDir()
	sink := newFaultySink(true)
	cfg := outboxTestConfig(t, dir, sink, nil)
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
	waitCond(t, "outbox handoff", func() bool { return h1.Counters().Get("outbox-handoffs") == 1 })
	if err := h1.RestartShard(h1.shardOf("user-0").id, "test"); err != nil {
		t.Fatal(err)
	}
	if got := h1.Counters().Get("replayed") + h1.Counters().Get("tombstoned"); got != 0 {
		t.Fatalf("the restart's scan replayed or tombstoned %d records, want 0", got)
	}
	if got := h1.WALBacklog(); got != 1 {
		t.Fatalf("WAL backlog = %d after the restart, want 1 (the envelope)", got)
	}
	h1.Kill()
	<-h1.Stopped()
	checkOutboxLedger(t, h1)

	sink.failing.Store(false)
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h2)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "outbox redelivery", func() bool { return h2.Outbox().Redelivered() == 1 })
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count("user-0", a.DedupKey()); got != 1 {
		t.Fatalf("deliveries = %d, want exactly 1", got)
	}
	checkOutboxLedger(t, h2)
}

// TestHubHasOneJournal: a hub configured as the benchmark's
// delivery_modes configures it — OutboxPath set, a guaranteed tenant —
// keeps one journal. It writes no file outside WALPath's, its outbox
// reports no journal of its own, and once an envelope is pending it runs
// exactly one goroutine more than a flat hub: the redelivery loop.
func TestHubHasOneJournal(t *testing.T) {
	// settle reads the goroutines above base once the count holds still.
	settle := func(base int) int {
		n := runtime.NumGoroutine()
		for {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n - base
			}
			n = m
		}
	}
	dir := t.TempDir()
	sink := newFaultySink(false)
	cfg := outboxTestConfig(t, dir, sink, nil)
	cfg.OutboxPath = ""
	base := runtime.NumGoroutine()
	flat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, flat, 1)
	if err := flat.Start(); err != nil {
		t.Fatal(err)
	}
	if err := flat.Submit("user-0", portalAlert(0, cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "flat delivery", func() bool { return flat.Counters().Get("delivered") == 1 })
	flatN := settle(base)
	if err := flat.Drain(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base, "after the flat hub's Drain")

	base = runtime.NumGoroutine()
	dir = t.TempDir()
	sink.failing.Store(true)
	cfg = outboxTestConfig(t, dir, sink, nil)
	cfg.OutboxBackoff = time.Hour // the envelope stays pending; no round runs
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGuaranteedUser(t, h)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-0", portalAlert(0, cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "outbox handoff", func() bool { return h.Counters().Get("outbox-handoffs") == 1 })
	if got := settle(base); got != flatN+1 {
		t.Errorf("hub with a pending envelope runs %d goroutines, a flat hub %d; want exactly one more", got, flatN)
	}
	if ob := h.Stats().Outbox; ob.Log.Syncs != 0 || ob.Log.DiskBytes != 0 {
		t.Errorf("outbox reports a journal of its own: %+v", ob.Log)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	checkOutboxLedger(t, h)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "hub.wal.") {
			t.Errorf("file %s is outside the WAL's", e.Name())
		}
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
	checkOutboxLedger(t, h1)

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
	checkOutboxLedger(t, h2)
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
	checkOutboxLedger(t, h)
}

// TestHubOutboxJournalCompacts: the outbox's records are the WAL's, so
// the WAL's checkpoints compact them with everything else — a guaranteed
// alert that sits behind a down substrate for many rounds, each round a
// Replace of two records, leaves only the newest segments for the next
// Open to replay.
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
	waitCond(t, "WAL checkpoint", func() bool { return h1.Stats().WAL.Checkpoints >= 1 })
	// Uncompacted, 50 rounds of ~200-byte records fill ten or more 1 KiB
	// segments; compacted every 8 records, only the newest stay.
	if st := h1.Stats(); st.WAL.Segments > 3 {
		t.Fatalf("WAL holds %d segments after %d rounds (%d checkpoints), want <= 3",
			st.WAL.Segments, st.Outbox.Rounds, st.WAL.Checkpoints)
	}

	sink.failing.Store(false)
	waitCond(t, "outbox redelivery", func() bool { return h1.Outbox().Redelivered() == 1 })
	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}
	checkOutboxLedger(t, h1)

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
	checkOutboxLedger(t, h2)
}

// TestRedeliverAllocBudget pins the hub's side of an outbox redelivery
// round, a failed one here: the plan is re-resolved and walked on the
// redelivery loop's one scratch, under the alert key sliced from the
// envelope's journal key, with the wire form built into a reused buffer
// — the round allocates nothing.
func TestRedeliverAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	down := errors.New("substrate down")
	h := newTestHub(t, Config{Channels: sinkChannels(func(int, string, *alert.Alert) error { return down }), Shards: 1})
	addGuaranteedUser(t, h)
	a := portalAlert(0, h.cfg.Clock.Now())
	e := &outbox.Entry{User: "user-0", Category: "Investment", Alert: a, Attempts: 1}
	dedup := e.User + keySep + a.DedupKey()
	round := func() {
		if blocks, err := h.redeliver(dedup, e); blocks != 1 || !errors.Is(err, core.ErrAllBlocksFailed) {
			t.Fatalf("round = (%d, %v), want one failed block", blocks, err)
		}
	}
	round() // warm the scratch and the wire buffer
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a redelivery round allocates %.1f times, want 0", n)
	}
}
