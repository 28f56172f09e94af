package hub

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/plog"
)

// TestSubmitBatchKeepsNothingOfTheCallers pins the ownership rule the
// key arena and the journal's payload arena must not weaken: once
// SubmitBatch has returned, the caller may reuse every byte it passed —
// the Submission slice, the alerts, their keyword slices — and the hub
// still routes, delivers and journals what was submitted. Routing is
// held back until the caller's storage has been scribbled on, so
// anything the hub only aliased would be seen scribbled; the second
// burst is killed before routing and read back from the journal. In
// between, an early burst held on one shard outlives a thousand later
// bursts that fill and replace key and payload arena chunks, and its
// keys and payloads still read back intact. Run once more with pool
// poisoning on, where a recycled envelope's fields are garbage rather
// than stale.
func TestSubmitBatchKeepsNothingOfTheCallers(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			poolPoison.Store(poison)
			defer poolPoison.Store(false)
			testSubmitBatchKeepsNothing(t)
		})
	}
}

func testSubmitBatchKeepsNothing(t *testing.T) {
	const users, burst = 8, 32
	type got struct {
		user string
		a    alert.Alert
	}
	var mu sync.Mutex
	var delivered []got
	gate := newRouteGate()  // armed while routing must wait
	early := newRouteGate() // armed while routing on the early users' shard must wait
	earlyShard := -1
	walPath := filepath.Join(t.TempDir(), "hub.wal")
	clk := clock.NewReal()
	h, err := New(Config{
		Clock: clk, WALPath: walPath, Shards: 4,
		Channels: sinkChannels(func(_ int, user string, a *alert.Alert) error {
			cp := *a
			cp.Keywords = slices.Clone(a.Keywords)
			mu.Lock()
			delivered = append(delivered, got{user: user, a: cp})
			mu.Unlock()
			return nil
		}),
		fault: func(p faultPoint, id int, killed <-chan struct{}) bool {
			wedgeAt(-1, gate)(p, id, killed)
			return wedgeAt(earlyShard, early)(p, id, killed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addUsers(t, h, users)
	earlyShard = h.shardOf("user-0").id
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}

	// offer submits one burst, has it acknowledged, and then overwrites
	// everything the caller passed in. It returns what was submitted.
	offer := func(round int) (want []got) {
		t.Helper()
		alerts := make([]alert.Alert, burst)
		batch := make([]Submission, burst)
		for i := range alerts {
			alerts[i] = *portalAlert(i, clk.Now().UTC().Round(0)) // no monotonic reading: compared with a parsed copy
			alerts[i].ID = fmt.Sprintf("a-%d-%d", round, i)
			alerts[i].Body = fmt.Sprintf("body of %d/%d", round, i)
			batch[i] = Submission{User: fmt.Sprintf("user-%d", i%users), Alert: &alerts[i]}
			cp := alerts[i]
			cp.Keywords = slices.Clone(cp.Keywords)
			want = append(want, got{user: batch[i].User, a: cp})
		}
		for i, err := range h.SubmitBatch(batch) {
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		for i := range batch {
			alerts[i].Keywords[0] = "scribbled"
			alerts[i] = alert.Alert{ID: "scribbled", Source: "nobody", Subject: "scribbled", Body: "scribbled"}
			batch[i] = Submission{User: "mallory"}
		}
		return want
	}

	// Burst 1: routed and delivered only after the scribbling.
	gate.arm()
	want := offer(1)
	gate.release()
	waitCond(t, "burst 1 to be delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == burst && h.WALBacklog() == 0
	})
	key := func(g got) string { return g.user + "/" + g.a.ID }
	byKey := make(map[string]got, burst)
	for _, g := range delivered {
		byKey[key(g)] = g
	}
	for _, w := range want {
		g, ok := byKey[key(w)]
		if !ok {
			t.Fatalf("%s was not delivered; delivered %v", key(w), delivered)
		}
		// Delivery carries the routed category in place of the keywords.
		w.a.Keywords = []string{"Investment"}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("delivered %+v, submitted %+v", g, w)
		}
	}

	// The key and payload arenas move on: an early burst for the users
	// on one shard is held there while a thousand later bursts for the
	// other shards fill and replace arena chunks and are delivered; the
	// early burst's keys and payloads still read back from the journal,
	// and it is then delivered and marked intact.
	var earlyUsers, laterUsers []string
	for i := range users {
		u := fmt.Sprintf("user-%d", i)
		if h.shardOf(u).id == earlyShard {
			earlyUsers = append(earlyUsers, u)
		} else {
			laterUsers = append(laterUsers, u)
		}
	}
	if len(laterUsers) == 0 {
		t.Fatalf("every user is on shard %d", earlyShard)
	}
	early.arm()
	wantEarly := make(map[string]got)
	var earlyBatch []Submission
	for i := range burst {
		a := portalAlert(i, clk.Now().UTC().Round(0))
		a.ID = fmt.Sprintf("a-early-%d", i)
		a.Body = fmt.Sprintf("early body %d", i)
		s := Submission{User: earlyUsers[i%len(earlyUsers)], Alert: a}
		earlyBatch = append(earlyBatch, s)
		cp := *a
		cp.Keywords = slices.Clone(a.Keywords)
		wantEarly[s.User+keySep+a.DedupKey()] = got{user: s.User, a: cp}
	}
	for i, err := range h.SubmitBatch(earlyBatch) {
		if err != nil {
			t.Fatalf("early submit %d: %v", i, err)
		}
	}
	later := make([]alert.Alert, 8)
	laterBatch := make([]Submission, len(later))
	for r := range 1000 {
		for i := range later {
			later[i] = *portalAlert(i, clk.Now())
			later[i].ID = fmt.Sprintf("a-later-%d-%d", r, i)
			laterBatch[i] = Submission{User: laterUsers[(r+i)%len(laterUsers)], Alert: &later[i]}
		}
		for i, err := range h.SubmitBatch(laterBatch) {
			if err != nil {
				t.Fatalf("later burst %d entry %d: %v", r, i, err)
			}
		}
	}
	waitCond(t, "the later bursts to be delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == burst+1000*len(later) && h.WALBacklog() == burst
	})
	runtime.GC()
	live := h.wal.Unprocessed()
	if len(live) != burst {
		t.Fatalf("%d unprocessed records with the early burst held, want %d", len(live), burst)
	}
	for _, rec := range live {
		w, ok := wantEarly[rec.Key]
		var a alert.Alert
		_, dedup, _ := strings.Cut(rec.Key, keySep)
		if err := a.UnmarshalRecord(rec.Payload, dedup); !ok || err != nil || !reflect.DeepEqual(a, w.a) {
			t.Fatalf("early record %q reads back %+v (%v), submitted %+v", rec.Key, a, err, w.a)
		}
	}
	early.release()
	waitCond(t, "the early burst to be delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(delivered) == 2*burst+1000*len(later) && h.WALBacklog() == 0
	})
	mu.Lock()
	for _, g := range delivered[len(delivered)-burst:] {
		w := wantEarly[g.user+keySep+g.a.DedupKey()]
		w.a.Keywords = []string{"Investment"}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("early burst delivered %+v, submitted %+v", g, w)
		}
	}
	mu.Unlock()
	for key := range wantEarly {
		if !h.wal.IsProcessed(key) && h.wal.Has(key) {
			t.Errorf("early key %q is live but not marked processed", key)
		}
	}

	// Burst 2: acknowledged, scribbled on, never routed; the journal's
	// copies are all that is left of it.
	gate.arm()
	want = offer(2)
	h.Kill()
	gate.release()
	select {
	case <-h.Stopped():
	case <-time.After(10 * time.Second):
		t.Fatal("hub did not stop after Kill")
	}
	wal, err := plog.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	recs := wal.Unprocessed()
	if len(recs) != burst {
		t.Fatalf("%d unprocessed records after the kill, want burst 2's %d", len(recs), burst)
	}
	for i, rec := range recs {
		w := want[i]
		if wantKey := w.user + keySep + w.a.DedupKey(); rec.Key != wantKey {
			t.Errorf("record %d key %q, want %q", i, rec.Key, wantKey)
		}
		var a alert.Alert
		if err := a.UnmarshalRecord(rec.Payload, w.a.DedupKey()); err != nil {
			t.Fatalf("record %d payload %q: %v", i, rec.Payload, err)
		}
		if !reflect.DeepEqual(a, w.a) {
			t.Errorf("record %d journaled %+v, submitted %+v", i, a, w.a)
		}
	}
}

// TestKilledHubIsCollectable pins that nothing a killed hub's delivery
// stages allocated keeps the hub reachable once its successor runs.
// Chain nodes come in slabs, and a node whose delivery a kill abandons
// mid-wait still points at its stage and so at its hub: a stage may
// never share a slab with another stage. The first hub is killed while
// its chains are parked. In the backoffs row it has delivered the odd
// tenants' alerts, whose chains ended and freed their nodes, and every
// even tenant's chain waits out a retry backoff; in the ack waits row
// every tenant's chain waits in an IM ack wait, its scratch in its node,
// its ack keys registered and its timeout armed on the stage's wheel.
// The second hub replays the journal and delivers what it replays; then
// a weak pointer to the first reads nil after two collections. It read
// non-nil when chain nodes came in slabs from one process-wide pool,
// where the second hub took the ended nodes beside the abandoned ones,
// and crash_recovery's peak RSS grew from 43 to 769 MiB in 20 s.
func TestKilledHubIsCollectable(t *testing.T) {
	for _, row := range []struct {
		name     string
		ackWaits bool
	}{{"backoffs", false}, {"ack waits", true}} {
		t.Run(row.name, func(t *testing.T) { testKilledHubIsCollectable(t, row.ackWaits) })
	}
}

func testKilledHubIsCollectable(t *testing.T, ackWaits bool) {
	const users, alerts, burst = 64, 1024, 64
	var delivered, refused atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	sink := sinkChannels(func(_ int, user string, _ *alert.Alert) error {
		if n, _ := strconv.Atoi(strings.TrimPrefix(user, "user-")); n%2 == 0 && failing.Load() {
			refused.Add(1)
			return errors.New("even tenants' channel down")
		}
		delivered.Add(1)
		return nil
	})
	cfg := Config{
		Clock:      clock.NewReal(),
		Channels:   sink,
		WALPath:    filepath.Join(t.TempDir(), "hub.wal"),
		queueDepth: alerts,
	}
	killedHub := func() weak.Pointer[Hub] {
		cfg := cfg
		if ackWaits {
			cfg.Channels, cfg.AckTimeout = parkingChannels(func(core.Send) (core.SendResult, error) { return core.SendResult{}, errSubstrateDown }), time.Minute
		}
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ackWaits {
			hostModeUsers(t, h, users, 0)
		} else {
			addUsers(t, h, users)
		}
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		subs := make([]Submission, alerts)
		for i := range subs {
			subs[i] = Submission{User: fmt.Sprintf("user-%d", i%users), Alert: portalAlert(i, now)}
		}
		for i := 0; i < alerts; i += burst {
			for k, err := range h.SubmitBatch(subs[i : i+burst]) {
				if err != nil {
					t.Fatalf("submit %d: %v", i+k, err)
				}
			}
		}
		if ackWaits {
			waitCond(t, "every tenant's chain to park in an IM ack wait", func() bool {
				armed := 0
				for _, sh := range h.shards {
					armed += sh.current().wheel.Pending()
				}
				return h.Executor().Acks().Pending() == users && armed == users
			})
		} else {
			waitCond(t, "the odd tenants' alerts to be delivered and every even tenant refused",
				func() bool { return delivered.Load() == alerts/2 && refused.Load() >= users/2 })
		}
		h.Kill()
		<-h.Stopped()
		return weak.Make(h)
	}()

	failing.Store(false)
	before := delivered.Load()
	h2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Drain()
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	replayed := h2.Counters().Get("replayed")
	if replayed == 0 {
		t.Fatal("the second hub replayed nothing")
	}
	waitCond(t, "every replayed alert to be delivered", func() bool { return delivered.Load() >= before+replayed })
	runtime.GC()
	runtime.GC()
	if killedHub.Value() != nil {
		t.Fatal("the killed hub is still reachable after its successor delivered its journal")
	}
}
