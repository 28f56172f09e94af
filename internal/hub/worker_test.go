package hub

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/core"
	"simba/internal/im"
	"simba/internal/stabilize"
)

// goroutines counts the process's goroutines but the testing package's
// own: a test runner goroutine of an earlier test (or -count iteration)
// still on its way out is nobody's leak, and counting it into a base
// would both fail an exact count and hide a leaked hub goroutine.
func goroutines() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("\ncreated by testing.")) {
			n++
		}
	}
	return n
}

// settleGoroutines waits for goroutines() to come back to base. Workers,
// the resolver and the journal's committer exit just after the call that
// retires them returns, so the count is polled, not read once;
// goroutines earlier tests left running are part of base and can only
// lower the count by finishing.
func settleGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for goroutines() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines %s, %d before the hub existed:\n%s",
				goroutines(), after, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// spawnedWorkers sums the current generations' worker launches.
func spawnedWorkers(h *Hub) (spawned int) {
	for _, sh := range h.shards {
		d := sh.current()
		d.mu.Lock()
		spawned += d.spawned
		d.mu.Unlock()
	}
	return spawned
}

// TestDeliveryWorkersExitWithTheirGeneration pins the worker lifecycle's
// far end: however a generation ends — drained, killed with deliveries
// parked in the substrate, killed and replaced while a worker is wedged,
// or drained after being renewed in place twenty times over by rolling
// rejuvenation under load — its workers end with it, and the process is
// back at the goroutine count it had before the hub existed.
func TestDeliveryWorkersExitWithTheirGeneration(t *testing.T) {
	const users = 32
	submitRound := func(t *testing.T, h *Hub, round int) {
		t.Helper()
		for i := 0; i < users; i++ {
			a := portalAlert(i, h.cfg.Clock.Now())
			a.ID = fmt.Sprintf("a-%d-%d", round, i)
			if err := h.Submit(fmt.Sprintf("user-%d", i), a); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("drain", func(t *testing.T) {
		base := goroutines()
		sink := newRecordingSink()
		sink.park()
		h := newTestHub(t, Config{Channels: sink.channels(), Shards: 4})
		addUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		submitRound(t, h, 0)
		sink.waitArrivals(t, users) // one worker per tenant, all inside the substrate
		if spawned := spawnedWorkers(h); spawned != users {
			t.Fatalf("%d workers spawned for %d concurrent chains", spawned, users)
		}
		sink.release()
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, "after Drain")
	})

	t.Run("kill", func(t *testing.T) {
		base := goroutines()
		sink := newRecordingSink()
		sink.park()
		h := newTestHub(t, Config{Channels: sink.channels(), Shards: 4})
		addUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		submitRound(t, h, 0)
		sink.waitArrivals(t, users)
		sink.release()
		sink.waitTotal(t, users)
		submitRound(t, h, 1) // the same workers, now parked or between chains, take these
		h.Kill()
		<-h.Stopped()
		settleGoroutines(t, base, "after Kill")
	})

	t.Run("restart of a wedged shard", func(t *testing.T) {
		base := goroutines()
		gate := newRouteGate()
		sink := newRecordingSink()
		h := newTestHub(t, Config{
			Channels: sink.channels(), Shards: 4,
			fault: wedgeAt(0, gate),
		})
		addUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		submitRound(t, h, 0) // shard 0 has parked workers by the time it wedges
		sink.waitTotal(t, users)
		old := h.shards[0].current()
		gate.arm()
		submitRound(t, h, 1)
		select {
		case <-gate.hit:
		case <-time.After(10 * time.Second):
			t.Fatal("shard 0 never hit the wedge hook")
		}
		gate.disarm() // the parked worker stays parked; the replacement generation routes
		if err := h.RestartShard(0, "test wedge"); err != nil {
			t.Fatal(err)
		}
		// The killed generation's workers are gone when RestartShard
		// returns, not some time after the replacement is serving.
		old.mu.Lock()
		free := old.live.Load() - old.busy.Load()
		old.mu.Unlock()
		if free != 0 {
			t.Fatalf("%d workers of the killed generation still live after RestartShard", free)
		}
		sink.waitTotal(t, 2*users)
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, "after RestartShard and Drain")
	})

	t.Run("supervised", func(t *testing.T) {
		base := goroutines()
		sink := newRecordingSink()
		h := newTestHub(t, Config{Channels: sink.channels(), Shards: 4})
		addUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		submitRound(t, h, 0)
		sink.waitTotal(t, users)
		unsupervised := goroutines()
		sup, err := h.Supervise(SuperviseConfig{Period: time.Millisecond, RejuvenateEvery: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, "every check to have run and every shard to have been recycled", func() bool {
			for _, cs := range sup.Stats() {
				if cs.Executions == 0 {
					return false
				}
			}
			for _, hl := range h.Healths() {
				if hl.Rejuvenations == 0 {
					return false
				}
			}
			return true
		})
		sup.Stop()
		sup.Wait()
		// Nothing of the plane outlives stop-and-wait: no check is inside a
		// RejuvenateShard when the drain begins, and the count is back where
		// it was before Supervise (rejuvenation renews a stage in place, so
		// its workers carry over).
		settleGoroutines(t, unsupervised, "after the supervision plane was stopped and waited for")
		submitRound(t, h, 1)
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, hl := range h.Healths() {
			if hl.Restarts != 0 {
				t.Errorf("supervising a healthy hub restarted shard %d: %+v", hl.Shard, hl)
			}
		}
		settleGoroutines(t, base, "after Drain")
	})

	t.Run("rolling rejuvenation under load", func(t *testing.T) {
		base := goroutines()
		var delivered atomic.Int64
		h := newTestHub(t, Config{
			Channels: sinkChannels(func(int, string, *alert.Alert) error { delivered.Add(1); return nil }),
			Shards:   4,
		})
		addUsers(t, h, users)
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var offered int64
		var load sync.WaitGroup
		load.Add(1)
		go func() {
			defer load.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]Submission, users)
				for i := range batch {
					a := portalAlert(i, h.cfg.Clock.Now())
					a.ID = fmt.Sprintf("a-%d-%d", round, i)
					batch[i] = Submission{User: fmt.Sprintf("user-%d", i), Alert: a}
				}
				// A full shard refuses admission; what it refuses is simply
				// not part of this test's load.
				for _, err := range h.SubmitBatch(batch) {
					if err == nil {
						offered++
					}
				}
			}
		}()
		for round := 0; round < 20; round++ {
			if err := h.RejuvenateAll(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		load.Wait()
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		if delivered.Load() != offered {
			t.Fatalf("delivered %d of %d acknowledged alerts", delivered.Load(), offered)
		}
		settleGoroutines(t, base, "after 20 rounds of RejuvenateAll and Drain")
	})
}

// TestHubGoroutinesDoNotScaleWithShards: an idle, started hub runs no
// goroutine per shard — a shard is its delivery stage, whose workers
// exist only while chains do — so 64 shards cost at most 2 goroutines
// more than one. Supervised (defaults, no outbox, no rejuvenation), a
// shard costs its one check's goroutine: at most 65 more.
func TestHubGoroutinesDoNotScaleWithShards(t *testing.T) {
	idle := func(shards int, supervised bool) int {
		base := goroutines()
		h := newTestHub(t, Config{
			Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
			Shards:   shards,
		})
		if err := h.Start(); err != nil {
			t.Fatal(err)
		}
		var sup *stabilize.Stabilizer
		if supervised {
			var err error
			if sup, err = h.Supervise(SuperviseConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		n := goroutines() - base
		if sup != nil {
			sup.Stop()
			sup.Wait()
		}
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, "after Drain")
		return n
	}
	for _, tc := range []struct {
		supervised bool
		extra      int
	}{{false, 2}, {true, 65}} {
		one, many := idle(1, tc.supervised), idle(64, tc.supervised)
		t.Logf("idle hub goroutines (supervised %v): %d at 1 shard, %d at 64", tc.supervised, one, many)
		if many > one+tc.extra {
			t.Errorf("idle hub (supervised %v) runs %d goroutines at 64 shards, %d at 1: over %d more",
				tc.supervised, many, one, tc.extra)
		}
	}
}

// TestHubAsyncIngestHasOneBound: with the journal's disk held, every
// staged ticket stays unresolved, so SubmitBatchAsync stops returning
// exactly where the resolver's inbox is full — defaultAsyncInFlight
// tickets queued plus the one the resolver holds — and the next call
// blocks until the disk is released.
func TestHubAsyncIngestHasOneBound(t *testing.T) {
	const calls = defaultAsyncInFlight + 2
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   1, queueDepth: calls,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	release := h.wal.HoldFilesForTest()
	var returned atomic.Int64
	results := make(chan (<-chan []error), calls)
	go func() {
		for i := 0; i < calls; i++ {
			results <- submitAsync(h, []Submission{{User: "user-0", Alert: portalAlert(i, h.cfg.Clock.Now())}})
			returned.Add(1)
		}
	}()
	// The calls stop returning once one blocks: wait for the count to
	// hold still, then release the disk before judging it.
	var n int64
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		m := returned.Load()
		if m > 0 && m == n {
			break
		}
		n = m
	}
	release()
	if n != defaultAsyncInFlight+1 {
		t.Fatalf("%d SubmitBatchAsync calls returned with the disk held; want %d", n, defaultAsyncInFlight+1)
	}
	for i := 0; i < calls; i++ {
		if errs := <-<-results; errs[0] != nil {
			t.Fatalf("ticket %d: %v", i, errs[0])
		}
	}
}

// TestDeliveryWorkersBoundedByConcurrentChains pins the near end: a
// worker is spawned only for a chain no live worker is free to take, so
// 10,000 alerts over 1,000 tenants on an instant channel are served by
// no more workers than there were ever chains live at once — nowhere
// near one per chain, which is what a goroutine per chain used to cost.
func TestDeliveryWorkersBoundedByConcurrentChains(t *testing.T) {
	const users, burst, total = 1000, 50, 10000
	var delivered atomic.Int64
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { delivered.Add(1); return nil }),
		Shards:   8, CommitWindow: 2 * time.Millisecond,
	})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	now := h.cfg.Clock.Now()
	for i := 0; i < total; i += burst {
		batch := make([]Submission, burst)
		for k := range batch {
			batch[k] = Submission{User: fmt.Sprintf("user-%d", (i+k)%users), Alert: portalAlert(i+k, now)}
		}
		for k, err := range h.SubmitBatch(batch) {
			if err != nil {
				t.Fatalf("submit %d: %v", i+k, err)
			}
		}
	}
	waitCond(t, "every alert to be delivered", func() bool { return delivered.Load() == total })
	for _, sh := range h.shards {
		d := sh.current()
		d.mu.Lock()
		spawned, peak := d.spawned, d.peakChains
		d.mu.Unlock()
		if spawned > peak {
			t.Errorf("shard %d: %d workers spawned, but at most %d chains were ever live at once", sh.id, spawned, peak)
		}
	}
	spawned := spawnedWorkers(h)
	t.Logf("%d workers served %d chains' worth of alerts", spawned, total)
	if spawned >= total/10 {
		t.Errorf("%d workers for %d alerts on an instant channel: workers are not being reused", spawned, total)
	}
}

// TestReadyChainStartsWhileWorkersParkInAckWaits pins that a delivery
// parked in an ack wait holds no worker: with every delivery waiting for
// an IM acknowledgement that never comes, every live worker is free, and
// a chain that becomes ready is taken by one of them at once — no worker
// is spawned for it — instead of queueing behind the ack timeout.
func TestReadyChainStartsWhileWorkersParkInAckWaits(t *testing.T) {
	const parked = 4
	sends := make(chan imSend, parked+1)
	var seq atomic.Uint64
	chans := core.NewChannels().
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			s := seq.Add(1)
			sends <- imSend{handle: req.To, seq: s}
			return core.SendResult{Seq: s}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			return core.SendResult{Confirmed: true}, nil
		}))
	h := newTestHub(t, Config{Channels: chans, Shards: 1, AckTimeout: 30 * time.Second})
	hostModeUsers(t, h, parked+1, 0)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	var unacked []imSend
	await := func(n int) {
		t.Helper()
		for len(unacked) < n {
			select {
			case s := <-sends:
				unacked = append(unacked, s)
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d IMs sent: a ready chain waited behind parked deliveries", len(unacked), n)
			}
		}
	}
	for i := 0; i < parked; i++ {
		if err := h.Submit(fmt.Sprintf("user-%d", i), portalAlert(i, h.cfg.Clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	await(parked)
	d := h.shards[0].current()
	waitCond(t, "every delivery to park in its ack wait with every worker free", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return h.Executor().Acks().Pending() == parked && d.busy.Load() == 0 && d.live.Load() > 0
	})
	before := spawnedWorkers(h)
	if err := h.Submit(fmt.Sprintf("user-%d", parked), portalAlert(parked, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	await(parked + 1)
	if spawned := spawnedWorkers(h); spawned != before || spawned > parked {
		t.Fatalf("%d workers spawned, %d before the chain became ready: want it taken by a free worker, and at most one per chain", spawned, before)
	}
	for _, s := range unacked {
		h.HandleIncoming(im.Message{From: s.handle, Text: core.AckText(s.seq)})
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
}

// parkingChannels is a registry whose IM channel never sees an
// acknowledgement and whose email channel confirms; sink backs the flat
// plan.
func parkingChannels(sink core.ChannelFunc) *core.Channels {
	var seq atomic.Uint64
	return core.NewChannels().Register(addr.TypeSink, sink).
		Register(addr.TypeIM, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			return core.SendResult{Seq: seq.Add(1)}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			return core.SendResult{Confirmed: true}, nil
		}))
}

// hostParkingUsers hosts user-0..n-1, every flatEvery'th on the flat
// plan and the rest on IM-then-email.
func hostParkingUsers(t *testing.T, h *Hub, n, flatEvery int) {
	t.Helper()
	addUsers(t, h, n)
	for i := 0; i < n; i++ {
		if i%flatEvery == 0 {
			continue
		}
		user := fmt.Sprintf("user-%d", i)
		b, _ := h.buddy(user)
		b.SetProfile(modeProfile(t, user, 0))
		if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
			t.Fatal(err)
		}
	}
}

// submitRoundBatched submits one alert per user in bursts of 64.
func submitRoundBatched(t *testing.T, h *Hub, users, round int) {
	t.Helper()
	for i := 0; i < users; i += 64 {
		batch := make([]Submission, 0, 64)
		for k := i; k < min(i+64, users); k++ {
			a := portalAlert(k, h.cfg.Clock.Now())
			a.ID = fmt.Sprintf("a-%d-%d", round, k)
			batch = append(batch, Submission{User: fmt.Sprintf("user-%d", k), Alert: a})
		}
		for k, err := range h.SubmitBatch(batch) {
			if err != nil {
				t.Fatalf("submit %d: %v", i+k, err)
			}
		}
	}
}

// TestHubGoroutinesBoundedByWindow: 2,048 admitted alerts over 1,024
// tenants on 8 shards, with 960 deliveries parked in ack waits that
// never resolve and 64 held inside the flat substrate's Send, run on no
// more goroutines than Shards × deliveryWindow workers and a handful
// more: parked deliveries are data, and a shard's workers are its
// window.
func TestHubGoroutinesBoundedByWindow(t *testing.T) {
	const shards, users, flatEvery, slack = 8, 1024, 16, 16
	sink := newRecordingSink()
	sink.park()
	base := goroutines()
	h := newTestHub(t, Config{
		Channels: parkingChannels(sink.Send), Shards: shards, queueDepth: users,
		AckTimeout: 30 * time.Second,
	})
	hostParkingUsers(t, h, users, flatEvery)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	submitRoundBatched(t, h, users, 0)
	submitRoundBatched(t, h, users, 1)
	flat := users / flatEvery
	sink.waitArrivals(t, flat)
	waitCond(t, "every IM delivery to park in its ack wait", func() bool {
		return h.Executor().Acks().Pending() == users-flat
	})
	n := goroutines() - base
	bound := shards*h.cfg.deliveryWindow + slack
	t.Logf("%d goroutines for %d parked and %d held deliveries (bound %d)", n, users-flat, flat, bound)
	if n > bound {
		t.Fatalf("%d goroutines above the baseline, want at most %d", n, bound)
	}
	for _, sh := range h.shards {
		if w := sh.current().live.Load(); w > int64(h.cfg.deliveryWindow) {
			t.Fatalf("shard %d runs %d workers, window %d", sh.id, w, h.cfg.deliveryWindow)
		}
	}
	sink.release()
	h.Kill()
	<-h.Stopped()
	settleGoroutines(t, base, "after Kill")
}

// TestKillWithParkedDeliveriesLeaksNothing kills a hub whose deliveries
// are all parked — IM ones in ack waits, flat ones in retry backoffs
// after a failed Send. Kill abandons them: no ack registration, no
// armed timer and no goroutine is left, and the next incarnation replays each
// parked alert exactly once.
func TestKillWithParkedDeliveriesLeaksNothing(t *testing.T) {
	const users, flatEvery = 64, 4
	wal := filepath.Join(t.TempDir(), "hub.wal")
	base := goroutines()
	h := newTestHub(t, Config{
		WALPath: wal, Shards: 2, AckTimeout: 30 * time.Second,
		Channels:        parkingChannels(func(core.Send) (core.SendResult, error) { return core.SendResult{}, errSubstrateDown }),
		deliveryBackoff: time.Minute, deliveryBackoffCap: time.Minute,
	})
	hostParkingUsers(t, h, users, flatEvery)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	submitRoundBatched(t, h, users, 0)
	flat := users / flatEvery
	armed := func() (n int) {
		for _, sh := range h.shards {
			n += sh.current().wheel.Pending()
		}
		return n
	}
	waitCond(t, "every delivery to park", func() bool {
		return h.Executor().Acks().Pending() == users-flat && armed() == users
	})
	h.Kill()
	<-h.Stopped()
	if p, a := h.Executor().Acks().Pending(), armed(); p != 0 || a != 0 {
		t.Fatalf("after Kill: %d acks registered, %d timers armed; want none", p, a)
	}
	settleGoroutines(t, base, "after Kill")

	sink := newRecordingSink()
	h2 := newTestHub(t, Config{WALPath: wal, Shards: 2, Channels: sink.channels()})
	addUsers(t, h2, users)
	if err := h2.Start(); err != nil {
		t.Fatal(err)
	}
	sink.waitTotal(t, users)
	if err := h2.Drain(); err != nil {
		t.Fatal(err)
	}
	seen := sink.snapshot()
	if len(seen.counts) != users {
		t.Errorf("%d distinct alerts replayed, want %d", len(seen.counts), users)
	}
	for key, n := range seen.counts {
		if n != 1 {
			t.Errorf("parked alert %s replayed %d times, want 1", key, n)
		}
	}
}

// TestRecycledChainNodeHoldsNoWait runs rounds of deliveries, under pool
// poisoning, that park in both waits a chain node holds: a flat
// tenant's first attempt at each alert fails and waits out a retry
// backoff, and an IM tenant's delivery waits out its IM ack timeout and
// falls back to email. Each round's chains end, and the next round's
// take their recycled nodes. A node recycled with its backoff or its
// scratch's ack wait still open is a poison hit, since its timer could
// wake the node's next chain. None may be, and no timer may stay armed
// once every round is delivered.
func TestRecycledChainNodeHoldsNoWait(t *testing.T) {
	const users, flatEvery, rounds = 32, 2, 4
	poolPoison.Store(true)
	defer poolPoison.Store(false)
	hits := poolPoisonHits.Load()
	var tried sync.Map // flat alerts whose first attempt failed
	var delivered atomic.Int64
	h := newTestHub(t, Config{
		Shards: 2, AckTimeout: 2 * time.Millisecond,
		Channels: parkingChannels(func(req core.Send) (core.SendResult, error) {
			if _, again := tried.LoadOrStore(req.User+"/"+req.Alert.ID, true); !again {
				return core.SendResult{}, errSubstrateDown
			}
			return core.SendResult{Confirmed: true}, nil
		}),
		onDelivery: func(_ string, _ *core.Report, err error) {
			if err == nil {
				delivered.Add(1)
			}
		},
	})
	hostParkingUsers(t, h, users, flatEvery)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	for r := range rounds {
		submitRoundBatched(t, h, users, r)
		waitCond(t, fmt.Sprintf("round %d to be delivered", r), func() bool { return delivered.Load() == int64(users*(r+1)) })
	}
	if got, want := h.Counters().Get("delivery-retries"), int64(rounds*users/flatEvery); got != want {
		t.Fatalf("%d retries, want %d: one backoff per flat alert", got, want)
	}
	if got := h.Stats().DeliveredByChannel[addr.TypeEmail]; got != int64(rounds*(users-users/flatEvery)) {
		t.Fatalf("%d delivered by email, want every IM tenant's alert after its ack timeout", got)
	}
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range h.shards {
		if n := sh.current().wheel.Pending(); n != 0 {
			t.Errorf("shard %d: %d timers armed after every chain ended", sh.id, n)
		}
	}
	if n := poolPoisonHits.Load() - hits; n != 0 {
		t.Fatalf("%d chain nodes were recycled with a wait still open", n)
	}
}
