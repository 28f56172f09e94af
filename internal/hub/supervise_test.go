package hub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/faults"
)

// TestHubWedgedShardAutoRecovers is the tentpole fault test: a fault
// hook wedges one shard's route loop mid-batch, sibling shards keep
// delivering while it hangs, and the supervision plane detects the
// stall from the shard's stale progress beat, kills the generation,
// and replays its WAL backlog — with the wedged alert delivered exactly
// once and a visible generation bump.
func TestHubWedgedShardAutoRecovers(t *testing.T) {
	const users = 32
	clk := clock.NewReal()
	sink := newCountingSink(nil)
	j := &faults.Journal{}

	// wedgeTarget selects the shard whose next routed batch hangs until
	// its generation is killed; -1 disarms.
	var wedgeTarget atomic.Int32
	wedgeTarget.Store(-1)
	wedged := make(chan struct{}, 1)
	hook := func(shard int, killed <-chan struct{}) {
		if int32(shard) == wedgeTarget.Load() {
			select {
			case wedged <- struct{}{}:
			default:
			}
			<-killed
		}
	}

	h := newTestHub(t, Config{
		Clock:              clk,
		Channels:           sinkChannels(sink.Deliver),
		Shards:             4,
		QueueDepth:         64,
		Journal:            j,
		RouteHook:          hook,
		QuiesceTimeout:     time.Second,
		DeliveryBackoff:    time.Millisecond,
		DeliveryBackoffCap: 2 * time.Millisecond,
	})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}

	// Pick a tenant on shard 0 and tenants on every other shard.
	var targetUser string
	siblingUsers := make([]string, 0, users)
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%d", i)
		if h.shardOf(user).id == 0 {
			if targetUser == "" {
				targetUser = user
			}
		} else {
			siblingUsers = append(siblingUsers, user)
		}
	}
	if targetUser == "" || len(siblingUsers) == 0 {
		t.Fatalf("user spread left a shard empty (target %q, %d siblings)", targetUser, len(siblingUsers))
	}

	// Wedge shard 0 on an admitted alert: the route loop dequeues it and
	// hangs, leaving it logged but unprocessed.
	wedgeTarget.Store(0)
	wedgeAlert := portalAlert(0, clk.Now())
	wedgeAlert.ID = "a-wedged"
	if err := h.Submit(targetUser, wedgeAlert); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wedged:
	case <-time.After(5 * time.Second):
		t.Fatal("route loop never hit the wedge hook")
	}
	// Disarm so the replayed generation routes normally; the blocked
	// hook invocation stays blocked until the kill releases it.
	wedgeTarget.Store(-1)

	// Siblings must keep serving while shard 0 hangs (no supervision
	// yet, so the hang is guaranteed to still be in force).
	const perSibling = 2
	siblingKeys := make(map[string][]string, len(siblingUsers))
	for i, user := range siblingUsers {
		for k := 0; k < perSibling; k++ {
			a := portalAlert(i, clk.Now())
			a.ID = fmt.Sprintf("a-sib-%d-%d", i, k)
			siblingKeys[user] = append(siblingKeys[user], a.DedupKey())
			if err := h.Submit(user, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	sink.waitTotal(t, len(siblingUsers)*perSibling)
	if got := sink.count(targetUser, wedgeAlert.DedupKey()); got != 0 {
		t.Fatalf("wedged alert delivered %d times while its shard hung", got)
	}
	if hl, err := h.ShardHealth(0); err != nil || hl.State != ShardRunning || hl.Depth == 0 {
		t.Fatalf("wedged shard health = %+v, %v; want running with queued work", hl, err)
	}

	// Supervision: fast probes, stale budget past the backoff cap.
	sup, err := h.Supervise(SuperviseConfig{
		ProbePeriod:      20 * time.Millisecond,
		ReplyTimeout:     50 * time.Millisecond,
		FailureThreshold: 2,
		StaleAfter:       30 * time.Millisecond,
		InvariantPeriod:  time.Hour, // this test exercises the watchdog only
		Journal:          j,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for {
		hl, err := h.ShardHealth(0)
		if err != nil {
			t.Fatal(err)
		}
		if hl.Restarts == 1 && hl.State == ShardRunning && hl.Generation == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never recovered: %+v", hl)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replayed generation must deliver the wedged alert exactly once
	// and serve new traffic.
	sink.waitTotal(t, len(siblingUsers)*perSibling+1)
	if got := sink.count(targetUser, wedgeAlert.DedupKey()); got != 1 {
		t.Fatalf("wedged alert delivered %d times after replay; want exactly 1", got)
	}
	post := portalAlert(1, clk.Now())
	post.ID = "a-post-recovery"
	if err := h.Submit(targetUser, post); err != nil {
		t.Fatalf("recovered shard rejected new traffic: %v", err)
	}
	sink.waitTotal(t, len(siblingUsers)*perSibling+2)

	sup.Stop()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once across the board: no sibling delivery duplicated by
	// the targeted restart.
	for user, keys := range siblingKeys {
		for _, key := range keys {
			if got := sink.count(user, key); got != 1 {
				t.Fatalf("sibling alert %s/%s delivered %d times", user, key, got)
			}
		}
	}
	if stats := sup.WatchdogStats(); stats[0].Restarts != 1 || stats[0].Failures < 2 {
		t.Fatalf("watchdog stats for shard 0 = %+v", stats[0])
	}
	if j.CountMatching(faults.KindDaemonRestart, "shard-0") == 0 {
		t.Fatal("probe-driven restart not journaled")
	}
	if sup.ProbeLatency().Count == 0 {
		t.Fatal("probe latency histogram empty")
	}
}

// TestHubRollingRejuvenationPreservesOrder is the ordering property
// test under self-management: per-user submission order must survive
// repeated rolling rejuvenations racing live traffic, with every alert
// delivered exactly once.
func TestHubRollingRejuvenationPreservesOrder(t *testing.T) {
	const users, perUser = 24, 25
	clk := clock.NewReal()
	sink := newOrderSink(dist.NewRNG(23), 4, 200)
	h := newTestHub(t, Config{
		Clock:          clk,
		Channels:       sinkChannels(sink.Deliver),
		Shards:         4,
		QueueDepth:     256,
		QuiesceTimeout: 5 * time.Second,
	})
	addUsers(t, h, users)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}

	stopRejuvenating := make(chan struct{})
	var rejuvenated sync.WaitGroup
	rejuvenated.Add(1)
	go func() {
		defer rejuvenated.Done()
		for {
			select {
			case <-stopRejuvenating:
				return
			default:
			}
			if err := h.RejuvenateAll(); err != nil {
				t.Errorf("rolling rejuvenation: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			submitAll(t, h, clk, fmt.Sprintf("user-%d", u), perUser)
		}(u)
	}
	wg.Wait()
	close(stopRejuvenating)
	rejuvenated.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}

	// Differential check: each user's delivery sequence must equal the
	// submission sequence, element for element.
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		seq := sink.sequence(user)
		if len(seq) != perUser {
			t.Fatalf("%s: delivered %d alerts, want %d: %v", user, len(seq), perUser, seq)
		}
		for i, id := range seq {
			if want := fmt.Sprintf("a-%s-%d", user, i); id != want {
				t.Fatalf("%s: delivery %d = %s, want %s (rejuvenation broke FIFO)", user, i, id, want)
			}
		}
	}
	// The race above must actually have recycled shards, gracefully.
	totalRejuvenations := int64(0)
	for _, hl := range h.Healths() {
		totalRejuvenations += hl.Rejuvenations
		if hl.Restarts != 0 {
			t.Fatalf("shard %d escalated to a hard restart during graceful rejuvenation: %+v", hl.Shard, hl)
		}
	}
	if totalRejuvenations == 0 {
		t.Fatal("no shard was ever rejuvenated while traffic flowed")
	}
}
