package hub

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/stabilize"
)

// TestHubWedgedShardAutoRecovers is the tentpole fault test: a fault
// hook wedges one shard's only busy worker before it routes, sibling
// shards keep delivering while it hangs, and the supervision plane detects the
// stall from the shard's stale progress beat, kills the generation,
// and replays its WAL backlog — with the wedged alert delivered exactly
// once and a visible generation bump.
func TestHubWedgedShardAutoRecovers(t *testing.T) {
	const users = 32
	clk := clock.NewReal()
	sink := newRecordingSink()
	j := &faults.Journal{}

	// While armed, shard 0's next routed batch hangs until its
	// generation is killed.
	gate := newRouteGate()

	h := newTestHub(t, Config{
		Clock:              clk,
		Channels:           sink.channels(),
		Shards:             4,
		queueDepth:         64,
		Journal:            j,
		fault:              wedgeAt(0, gate),
		deliveryBackoff:    time.Millisecond,
		deliveryBackoffCap: 2 * time.Millisecond,
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

	// Wedge shard 0 on an admitted alert: the worker owning its chain
	// takes it and hangs, leaving it logged but unprocessed.
	gate.arm()
	wedgeAlert := portalAlert(0, clk.Now())
	wedgeAlert.ID = "a-wedged"
	if err := h.Submit(targetUser, wedgeAlert); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.hit:
	case <-time.After(5 * time.Second):
		t.Fatal("route loop never hit the wedge hook")
	}
	// Disarm so the replayed generation routes normally; the blocked
	// hook invocation stays blocked until the kill releases it.
	gate.disarm()

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

	// Supervision: fast checks, a short stale budget.
	sup, err := h.Supervise(SuperviseConfig{
		Period:        20 * time.Millisecond,
		escalateAfter: 2,
		staleAfter:    30 * time.Millisecond,
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
	sup.Wait()
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
	// A healthy shard is never restarted: the recovery was shard 0's.
	for _, hl := range h.Healths()[1:] {
		if hl.Generation != 1 || hl.Restarts != 0 {
			t.Fatalf("sibling shard %d was restarted: %+v", hl.Shard, hl)
		}
	}
	if cs := checkStats(t, sup, "shard-0"); cs.Failures < 2 || cs.Escalations != 1 {
		t.Fatalf("check stats for shard 0 = %+v", cs)
	}
	if j.CountMatching(faults.KindDaemonRestart, `check "shard-0"`) != 1 {
		t.Fatal("check-driven restart not journaled by RestartShard")
	}
}

// TestHubWedgedEvaluationStallsOnlyItsChain: an evaluation wedged at
// faultRoute holds its own tenant's chain, not the shard — another
// tenant on the same shard is still delivered, as it would be behind a
// slow Send.
func TestHubWedgedEvaluationStallsOnlyItsChain(t *testing.T) {
	gate := newRouteGate()
	sink := newRecordingSink()
	h := newTestHub(t, Config{
		Channels: sink.channels(), Shards: 1,
		fault: wedgeAt(0, gate),
	})
	addUsers(t, h, 2)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	gate.arm()
	gate.mu.Lock()
	hold := gate.hold
	gate.mu.Unlock()
	first := portalAlert(0, h.cfg.Clock.Now())
	if err := h.Submit("user-0", first); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.hit:
	case <-time.After(5 * time.Second):
		t.Fatal("user-0's alert never reached faultRoute")
	}
	gate.disarm() // user-0 stays parked; user-1 must not park behind it

	second := portalAlert(1, h.cfg.Clock.Now())
	if err := h.Submit("user-1", second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.count("user-1", second.DedupKey()) == 0 {
		if time.Now().After(deadline) {
			// The parked call clears only on a kill: without the restart
			// the cleanup's Drain would wait for it forever.
			_ = h.RestartShard(0, "test timed out")
			t.Fatal("user-1's alert waited behind user-0's wedged evaluation on the same shard")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sink.count("user-0", first.DedupKey()); got != 0 {
		t.Fatalf("wedged alert delivered %d times while parked", got)
	}
	close(hold)
	sink.waitTotal(t, 2)
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count("user-0", first.DedupKey()); got != 1 {
		t.Fatalf("released alert delivered %d times; want 1", got)
	}
}

// checkStats returns the named check's counters.
func checkStats(t *testing.T, sup *stabilize.Stabilizer, name string) stabilize.CheckStats {
	t.Helper()
	for _, cs := range sup.Stats() {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("no check named %q", name)
	return stabilize.CheckStats{}
}

// TestHubInvariantEscalationRestartsItsShard runs a gauge invariant to
// its escalation: a queue-depth gauge scribbled out of bounds fails its
// shard's check, the escalateAfter'th failure restarts that shard and no
// other, and the restart's gauge reset heals the invariant.
func TestHubInvariantEscalationRestartsItsShard(t *testing.T) {
	const escalateAfter = 2
	j := &faults.Journal{}
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   4, Journal: j,
	})
	addUsers(t, h, 8)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	// An hour's period: the checks run only when this test runs them.
	sup, err := h.Supervise(SuperviseConfig{Period: time.Hour, escalateAfter: escalateAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	const check = "shard-2"
	sh := h.shards[2]
	sh.depth.Store(sh.cap + 7)
	for i := 0; i < escalateAfter; i++ {
		if err := sup.RunOnce(check); err == nil {
			t.Fatalf("run %d: depth %d over capacity %d passed the check", i, sh.depth.Load(), sh.cap)
		}
	}
	for _, hl := range h.Healths() {
		wantGen, wantRestarts := int64(1), int64(0)
		if hl.Shard == 2 {
			wantGen, wantRestarts = 2, 1
		}
		if hl.Generation != wantGen || hl.Restarts != wantRestarts || hl.State != ShardRunning {
			t.Fatalf("shard %d = %+v; want running at generation %d after %d restarts", hl.Shard, hl, wantGen, wantRestarts)
		}
	}
	if err := sup.RunOnce(check); err != nil {
		t.Fatalf("check after the restart reset the gauge: %v", err)
	}
	if cs := checkStats(t, sup, check); cs.Failures != escalateAfter || cs.Heals != 1 || cs.Escalations != 1 {
		t.Fatalf("%s stats = %+v; want %d failures, 1 heal, 1 escalation", check, cs, escalateAfter)
	}
	if j.CountMatching(faults.KindDaemonRestart, check) != 1 {
		t.Fatal("escalated restart's reason does not name the check")
	}
}

// skewClock is the real clock read skew ahead. A shard's beat never
// moves backwards, so a test ages it by skipping the clock forward.
type skewClock struct {
	clock.Clock
	skew atomic.Int64
}

func (c *skewClock) skip(d time.Duration)            { c.skew.Add(int64(d)) }
func (c *skewClock) Now() time.Time                  { return c.Clock.Now().Add(time.Duration(c.skew.Load())) }
func (c *skewClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestShardProgressCheckTakesNoLocks pins what makes the watchdog safe
// to point at a wedged shard: the progress check — passing or failing —
// returns while every lock around the shard is held by someone else.
func TestShardProgressCheckTakesNoLocks(t *testing.T) {
	clk := &skewClock{Clock: clock.NewReal()}
	h := newTestHub(t, Config{
		Clock:    clk,
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   2,
	})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	sup, err := h.Supervise(SuperviseConfig{Period: time.Hour, staleAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	sh := h.shards[0]
	stage := sh.current()
	h.mu.Lock()
	sh.lifeMu.Lock()
	sh.mu.Lock()
	stage.mu.Lock()
	defer func() {
		sh.depth.Store(0)
		stage.busy.Add(-1)
		stage.mu.Unlock()
		sh.mu.Unlock()
		sh.lifeMu.Unlock()
		h.mu.Unlock()
	}()

	run := func(wantFail bool) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- sup.RunOnce("shard-0") }()
		select {
		case err := <-done:
			if (err != nil) != wantFail {
				t.Fatalf("progress check = %v; want failure: %v", err, wantFail)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("progress check blocked behind a lock of the shard it watches")
		}
	}
	sh.depth.Store(1) // admitted work, every worker idle: a stale beat passes
	clk.skip(time.Minute)
	run(false)
	stage.busy.Add(1) // a busy worker, so the check reads the beat
	sh.progress.Beat(clk.Now())
	run(false)
	clk.skip(time.Minute)
	run(true) // one failure: under the threshold, so nothing escalates into lifeMu
}

// TestShardCheckFailsOnEachCondition: a supervised hub has one check per
// shard beside the hub-wide ones, and that check fails on each of its
// conditions alone — depth outside [0, cap], in-flight outside
// [0, deliveryWindow], a Running shard with a busy worker and a stale
// beat — and passes once the condition is gone. Admitted work with
// every worker idle is parked, not stalled: a stale beat then passes.
func TestShardCheckFailsOnEachCondition(t *testing.T) {
	const window = 4
	clk := &skewClock{Clock: clock.NewReal()}
	h := newTestHub(t, Config{
		Clock:    clk,
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   3, deliveryWindow: window,
	})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	// An hour's period and a threshold never reached: only RunOnce runs
	// the check, and nothing restarts.
	sup, err := h.Supervise(SuperviseConfig{Period: time.Hour, staleAfter: time.Second, escalateAfter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	var names []string
	for _, cs := range sup.Stats() {
		names = append(names, cs.Name)
	}
	if want := []string{"shard-0", "shard-1", "shard-2", "wal-backlog", "outbox-age", "pool-poison"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("checks = %q, want %q", names, want)
	}

	sh := h.shards[1]
	stage := sh.current()
	for _, tc := range []struct {
		name        string
		spoil, heal func()
	}{
		{"depth below zero", func() { sh.depth.Store(-1) }, func() { sh.depth.Store(0) }},
		{"depth over capacity", func() { sh.depth.Store(sh.cap + 1) }, func() { sh.depth.Store(0) }},
		{"in-flight below zero", func() { sh.inflight.Add(-1) }, func() { sh.inflight.Add(1) }},
		{"in-flight over the window", func() { sh.inflight.Add(window + 1) }, func() { sh.inflight.Add(-window - 1) }},
		{"stale beat with a busy worker", func() {
			stage.busy.Add(1)
			clk.skip(time.Minute)
		}, func() { sh.progress.Beat(clk.Now()) }},
	} {
		tc.spoil()
		if err := sup.RunOnce("shard-1"); err == nil {
			t.Errorf("%s: check passed", tc.name)
		}
		tc.heal()
		if err := sup.RunOnce("shard-1"); err != nil {
			t.Errorf("%s healed: check still fails: %v", tc.name, err)
		}
	}
	stage.busy.Add(-1)
	// A stale beat is no failure while every worker is idle, with work
	// admitted or without.
	clk.skip(time.Minute)
	for _, depth := range []int64{1, 0} {
		sh.depth.Store(depth)
		if err := sup.RunOnce("shard-1"); err != nil {
			t.Fatalf("depth %d, every worker idle, old beat: check failed: %v", depth, err)
		}
	}
}

// watchShard0 waits until sup's shard-0 check has run another runs
// times on its own ticker.
func watchShard0(t *testing.T, sup *stabilize.Stabilizer, runs int64) {
	t.Helper()
	runs += checkStats(t, sup, "shard-0").Executions
	waitCond(t, "the watchdog to keep running", func() bool { return checkStats(t, sup, "shard-0").Executions >= runs })
}

// TestParkedAckWaitIsNotAStall: a delivery parked on its IM ack holds no
// worker, so the watchdog has no busy worker to judge — an ack wait far
// past staleAfter neither restarts the shard nor sends the IM again. The
// ack, not the timeout, ends the delivery: one IM, no email.
func TestParkedAckWaitIsNotAStall(t *testing.T) {
	const staleAfter, period = 20 * time.Millisecond, 4 * time.Millisecond
	var seq atomic.Uint64
	sends := make(chan imSend, 64)
	var emails atomic.Int64
	chans := core.NewChannels().
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			s := imSend{handle: req.To, seq: seq.Add(1)}
			select {
			case sends <- s:
			default:
			}
			return core.SendResult{Seq: s.seq}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			emails.Add(1)
			return core.SendResult{Confirmed: true}, nil
		}))
	// The ack wait is 1,500 × staleAfter; the backoff cap sits under it.
	h := newTestHub(t, Config{Channels: chans, Shards: 1, AckTimeout: 30 * time.Second, deliveryBackoffCap: 5 * time.Millisecond})
	hostModeUsers(t, h, 1, 0)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	sup, err := h.Supervise(SuperviseConfig{Period: period, staleAfter: staleAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	var first imSend
	select {
	case first = <-sends:
	case <-time.After(10 * time.Second):
		t.Fatal("the IM was never sent")
	}
	watchShard0(t, sup, int64(6*staleAfter/period))
	if restarts, ims := h.Healths()[0].Restarts, seq.Load(); restarts != 0 || ims != 1 {
		t.Fatalf("during the ack wait: %d shard restarts and %d IM sends, want 0 and 1", restarts, ims)
	}
	h.HandleIncoming(im.Message{From: first.handle, Text: core.AckText(first.seq)})
	sup.Stop()
	sup.Wait()
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if restarts, ims := st.Shards[0].Restarts, seq.Load(); restarts != 0 || ims != 1 || emails.Load() != 0 || st.DeliveredByChannel[addr.TypeIM] != 1 {
		t.Fatalf("%d restarts, %d IM sends, %d emails, %d delivered by IM; want 0, 1, 0, 1",
			restarts, ims, emails.Load(), st.DeliveredByChannel[addr.TypeIM])
	}
}

// TestRejuvenationKeepsParkedAckWait: rejuvenation renews a shard in
// place, so a delivery parked on its IM ack survives it. RejuvenateShard
// returns while the ack is outstanding, the shard keeps admitting, and
// the ack that arrives afterwards ends the delivery: one IM, no email,
// no restart.
func TestRejuvenationKeepsParkedAckWait(t *testing.T) {
	var seq atomic.Uint64
	sends := make(chan imSend, 4)
	var emails, sunk atomic.Int64
	chans := sinkChannels(func(int, string, *alert.Alert) error { sunk.Add(1); return nil }).
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			s := imSend{handle: req.To, seq: seq.Add(1)}
			sends <- s
			return core.SendResult{Seq: s.seq}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			emails.Add(1)
			return core.SendResult{Confirmed: true}, nil
		}))
	h := newTestHub(t, Config{Channels: chans, Shards: 1, AckTimeout: 30 * time.Second})
	hostParkingUsers(t, h, 2, 2) // user-0 on the flat plan, user-1 on IM-then-email
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if err := h.Submit("user-1", portalAlert(1, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	var first imSend
	select {
	case first = <-sends:
	case <-time.After(10 * time.Second):
		t.Fatal("the IM was never sent")
	}
	waitCond(t, "the IM delivery to park on its ack", func() bool { return h.Executor().Acks().Pending() == 1 })
	if err := h.RejuvenateShard(0); err != nil {
		t.Fatal(err)
	}
	if hl, pending := h.Healths()[0], h.Executor().Acks().Pending(); hl.Restarts != 0 || hl.Rejuvenations != 1 || pending != 1 {
		h.Kill() // a replayed IM's ack wait would hold the cleanup's Drain for AckTimeout
		t.Fatalf("after RejuvenateShard: %d IM sends, %d restarts, %d rejuvenations, %d acks pending; want 1, 0, 1, 1",
			seq.Load(), hl.Restarts, hl.Rejuvenations, pending)
	}
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatalf("admission after rejuvenation: %v", err)
	}
	waitCond(t, "the second tenant's alert to be delivered", func() bool { return sunk.Load() == 1 })
	h.HandleIncoming(im.Message{From: first.handle, Text: core.AckText(first.seq)})
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if ims, hl := seq.Load(), st.Shards[0]; ims != 1 || emails.Load() != 0 || hl.Restarts != 0 || hl.Rejuvenations != 1 || st.DeliveredByChannel[addr.TypeIM] != 1 {
		t.Fatalf("%d IM sends, %d emails, %d restarts, %d rejuvenations, %d delivered by IM; want 1, 0, 0, 1, 1",
			ims, emails.Load(), hl.Restarts, hl.Rejuvenations, st.DeliveredByChannel[addr.TypeIM])
	}
}

// TestParkedBackoffIsNotAStall: a delivery waiting out a retry backoff
// holds no worker either, so staleAfter needs no floor under
// deliveryBackoffCap — a 30 ms staleAfter beside a one-minute backoff
// restarts nothing and retries nothing early.
func TestParkedBackoffIsNotAStall(t *testing.T) {
	const staleAfter, period = 30 * time.Millisecond, 5 * time.Millisecond
	var attempts atomic.Int64
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error {
			attempts.Add(1)
			return errors.New("substrate down")
		}),
		Shards: 1, deliveryBackoff: time.Minute, deliveryBackoffCap: time.Minute,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	sup, err := h.Supervise(SuperviseConfig{Period: period, staleAfter: staleAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the first attempt to fail", func() bool { return attempts.Load() > 0 })
	watchShard0(t, sup, int64(5*staleAfter/period))
	sup.Stop()
	sup.Wait()
	if restarts, n := h.Healths()[0].Restarts, attempts.Load(); restarts != 0 || n != 1 {
		t.Fatalf("during the backoff: %d shard restarts and %d attempts, want 0 and 1", restarts, n)
	}
	h.Kill() // the retry is a minute away
	<-h.Stopped()
}

// TestSlowStepAfterIdleIsNotAStall: a worker beats when it takes a
// chain, so a step is timed from its own start — a Send slower than
// several check periods but inside staleAfter, taken after the shard sat
// idle past staleAfter, restarts nothing.
func TestSlowStepAfterIdleIsNotAStall(t *testing.T) {
	const staleAfter, period = 60 * time.Millisecond, 4 * time.Millisecond
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error {
			time.Sleep(staleAfter / 3)
			return nil
		}),
		Shards: 1,
	})
	addUsers(t, h, 1)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	sup, err := h.Supervise(SuperviseConfig{Period: period, staleAfter: staleAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	watchShard0(t, sup, int64(2*staleAfter/period)) // idle: the beat ages past staleAfter
	if err := h.Submit("user-0", portalAlert(0, h.cfg.Clock.Now())); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "the slow delivery", func() bool { return h.Counters().Get("delivered") == 1 })
	sup.Stop()
	sup.Wait()
	if hl := h.Healths()[0]; hl.Restarts != 0 {
		t.Fatalf("a step inside staleAfter restarted its shard: %+v", hl)
	}
}

// TestHubWedgedShardsRestartOneAtATime wedges two shards together. Their
// progress checks run on separate goroutines and cross the threshold
// within a period of each other; the restarts they escalate to must
// still roll — the journal shows one shard killed and back before the
// other is touched.
func TestHubWedgedShardsRestartOneAtATime(t *testing.T) {
	j := &faults.Journal{}
	gate := newRouteGate()
	park := wedgeAt(-1, gate)
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   2, Journal: j,
		fault: func(p faultPoint, shard int, killed <-chan struct{}) bool {
			park(p, shard, killed)
			select {
			case <-killed:
				// A stage slow to notice its kill keeps each restart open
				// for several check periods, so two restarts that were not
				// serialized would overlap.
				time.Sleep(100 * time.Millisecond)
			default:
			}
			return false
		},
	})
	addUsers(t, h, 16)
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	gate.arm()
	for id := 0; id < 2; id++ {
		for i := 0; ; i++ {
			if user := fmt.Sprintf("user-%d", i); h.shardOf(user).id == id {
				if err := h.Submit(user, portalAlert(id, h.cfg.Clock.Now())); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		select {
		case <-gate.hit:
		case <-time.After(5 * time.Second):
			t.Fatalf("shard %d never hit the wedge", id)
		}
	}
	gate.disarm()

	sup, err := h.Supervise(SuperviseConfig{Period: 10 * time.Millisecond, staleAfter: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	waitCond(t, "both wedged shards to be restarted", func() bool {
		hls := h.Healths()
		return hls[0].Restarts == 1 && hls[1].Restarts == 1 && hls[0].State == ShardRunning && hls[1].State == ShardRunning
	})
	sup.Stop()
	sup.Wait()

	open := "" // the shard between its "killing" and "restarted" lines
	for _, e := range j.Entries() {
		if e.Kind != faults.KindDaemonRestart {
			continue
		}
		shard, rest, _ := strings.Cut(e.Detail, ": ")
		switch {
		case strings.HasPrefix(rest, "killing generation "):
			if open != "" {
				t.Fatalf("%s killed while %s was still restarting:\n%v", shard, open, j.Entries())
			}
			open = shard
		case strings.HasPrefix(rest, "restarted as generation "):
			open = ""
		}
	}
}

// TestHubScheduledRejuvenationRollsAndJournalsFailure: RejuvenateEvery
// is one more check — every shard is recycled on its period, and a round
// that cannot run (here: the hub has been drained) is journaled and
// never escalates.
func TestHubScheduledRejuvenationRollsAndJournalsFailure(t *testing.T) {
	j := &faults.Journal{}
	h := newTestHub(t, Config{
		Channels: sinkChannels(func(int, string, *alert.Alert) error { return nil }),
		Shards:   3, Journal: j,
	})
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	sup, err := h.Supervise(SuperviseConfig{Period: time.Hour, RejuvenateEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	waitCond(t, "a scheduled round to recycle every shard", func() bool {
		for _, hl := range h.Healths() {
			if hl.Rejuvenations == 0 || hl.Restarts != 0 {
				return false
			}
		}
		return true
	})
	if err := h.Drain(); err != nil {
		t.Fatal(err)
	}
	const check = "rolling-rejuvenation"
	waitCond(t, "a round against the drained hub to fail", func() bool { return checkStats(t, sup, check).Failures >= 3 })
	sup.Stop()
	sup.Wait()
	if cs := checkStats(t, sup, check); cs.Escalations != 0 {
		t.Fatalf("%s escalated: %+v", check, cs)
	}
	if j.CountMatching(faults.KindFaultInjected, check) == 0 {
		t.Fatal("failed rejuvenation round not journaled")
	}
}

// TestHubRollingRejuvenationPreservesOrder is the ordering property
// test under self-management: per-user submission order must survive
// repeated rolling rejuvenations — each renewing a shard in place,
// chains and all — racing live traffic, with every alert delivered
// exactly once.
func TestHubRollingRejuvenationPreservesOrder(t *testing.T) {
	const users, perUser = 24, 25
	clk := clock.NewReal()
	sink := newOrderSink(dist.NewRNG(23), 4, 200)
	h := newTestHub(t, Config{
		Clock:      clk,
		Channels:   sinkChannels(sink.Deliver),
		Shards:     4,
		queueDepth: 256,
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
	// The race above must actually have rejuvenated shards, in place.
	totalRejuvenations := int64(0)
	for _, hl := range h.Healths() {
		totalRejuvenations += hl.Rejuvenations
		if hl.Restarts != 0 {
			t.Fatalf("shard %d was restarted during rejuvenation: %+v", hl.Shard, hl)
		}
	}
	if totalRejuvenations == 0 {
		t.Fatal("no shard was ever rejuvenated while traffic flowed")
	}
}
