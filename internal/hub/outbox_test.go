package hub

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/mab"
	"simba/internal/outbox"
	"simba/internal/race"
)

// TestHubHasOneJournal: a hub configured as the benchmark's
// delivery_modes configures it — OutboxPath set, a guaranteed tenant —
// keeps one journal. It writes no file outside WALPath's, its outbox
// reports no journal of its own, and once an envelope is pending it runs
// exactly one goroutine more than a flat hub: the redelivery loop.
func TestHubHasOneJournal(t *testing.T) {
	// settle reads the goroutines above base once the count holds still.
	// A base is settled too, and the test ends by waiting out its hubs:
	// a goroutine of an earlier hub (or -count iteration) that exits
	// mid-measurement would otherwise lower an exact count.
	settle := func(base int) int {
		n := goroutines()
		for {
			time.Sleep(20 * time.Millisecond)
			m := goroutines()
			if m == n {
				return n - base
			}
			n = m
		}
	}
	sink := newRecordingSink()
	cfg := Config{Clock: clock.NewReal(), Channels: sink.channels(), WALPath: filepath.Join(t.TempDir(), "hub.wal"), Shards: 1}
	fastRetries(&cfg)
	base := settle(0)
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

	base = settle(0)
	dir := t.TempDir()
	sink.setFailing(true)
	cfg.WALPath, cfg.OutboxPath = filepath.Join(dir, "hub.wal"), filepath.Join(dir, "hub.outbox")
	cfg.OutboxBackoff = time.Hour // the envelope stays pending; no round runs
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hostGuaranteed(t, h, "user-0")
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
	settleGoroutines(t, base, "after the pending hub's Drain")
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
		deliveryMaxAttempts: 1, // first execution exhausts the budget → outbox
		OutboxBackoff:       2 * time.Millisecond,
		outboxBackoffCap:    10 * time.Millisecond,
		outboxEscalateEvery: 2,
		onDelivery: func(u string, rep *core.Report, err error) {
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
	hostGuaranteed(t, h, "user-0")
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

// TestHubHandoffFsyncsPerBurst is the handoff's fsync pin: 64
// guaranteed-tier alerts exhaust their attempts against a down substrate
// and are handed to the outbox while ingest is idle. The handoffs stage
// and wait on no commit, so together they cost at most one fsync — the
// doneHold flush of their batch — where a handoff that waits on its own
// commit costs up to one each.
func TestHubHandoffFsyncsPerBurst(t *testing.T) {
	const users = 64
	sink := newRecordingSink()
	sink.setFailing(true)
	cfg := Config{Channels: sink.channels(), Shards: 4}
	fastRetries(&cfg)
	cfg.OutboxBackoff = time.Hour // no round runs: the handoffs alone
	h := newTestHub(t, cfg)
	subs := make([]Submission, users)
	for u := range subs {
		user := fmt.Sprintf("user-%d", u)
		hostGuaranteed(t, h, user)
		subs[u] = Submission{User: user, Alert: portalAlert(u, time.Unix(985597200, int64(u)))}
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for i, err := range h.SubmitBatch(subs) {
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
	}
	before := h.Stats().WAL
	waitCond(t, "every handoff", func() bool { return h.Counters().Get("outbox-handoffs") == users })
	waitCond(t, "the handoffs' batch to land", func() bool { return h.Stats().WAL.UnflushedDones == 0 })
	wal := h.Stats().WAL
	syncs := wal.Syncs - before.Syncs
	t.Logf("%d handoffs: %d fsyncs (%d waiter-less)", users, syncs, wal.WaiterlessSyncs-before.WaiterlessSyncs)
	if syncs > 1 {
		t.Fatalf("%d handoffs with ingest idle took %d journal fsyncs, want at most 1", users, syncs)
	}
	if got := h.Outbox().Pending(); got != users {
		t.Fatalf("%d envelopes pending, want %d", got, users)
	}
}
