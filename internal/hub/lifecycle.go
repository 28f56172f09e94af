package hub

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"simba/internal/alert"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/faults"
	"simba/internal/outbox"
	"simba/internal/plog"
)

// Start publishes every shard's first generation, recovers the WAL
// (replay), starts the outbox's redelivery over the envelopes it holds,
// and only then opens admission.
func (h *Hub) Start() error {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return errors.New("hub: already started")
	}
	h.started = true
	h.mu.Unlock()
	for _, sh := range h.shards {
		if !h.publishGen(sh, newDeliveryStage(h, sh, nil)) {
			return ErrNotAccepting
		}
		sh.setState(ShardRunning)
	}
	h.replay()
	if err := h.outbox.Start(h.redeliver); err != nil {
		return err
	}
	go h.resolver()
	h.accepting.Store(true)
	return nil
}

// publishGen makes next the shard's current stage, as its next
// generation, closing the outgoing stage's intake under the same lock,
// so no enqueue can land between the close and the swap. The hub's
// kill is re-checked under sh.mu, which Kill's killCurrent takes to
// read cur: either Kill finds next there and kills it, or the kill is
// seen here — then nothing is published, the shard is Stopped and
// publishGen reports false. The caller holds sh.lifeMu, or is Start.
func (h *Hub) publishGen(sh *shard, next *deliveryStage) bool {
	sh.mu.Lock()
	select {
	case <-h.killed:
		sh.mu.Unlock()
		sh.setState(ShardStopped)
		return false
	default:
	}
	if cur := sh.cur.Load(); cur != nil {
		cur.closed = true
	}
	sh.cur.Store(next)
	sh.mu.Unlock()
	sh.gen.Add(1)
	sh.progress.Beat(h.cfg.Clock.Now())
	return true
}

// redeliver executes one outbox redelivery round: re-resolve the
// tenant's plan (the subscription may have changed since the envelope
// was persisted), slice off the blocks the envelope's escalation
// offset has advanced past, and run the remainder through the shared
// mode executor, on the redelivery loop's one scratch and wire buffer
// and under the alert key sliced from dedup. Reports the plan's full
// block count so the outbox knows the escalation ceiling. A tenant that
// is no longer hosted retires the envelope as undeliverable
// (outbox.ErrDrop).
func (h *Hub) redeliver(dedup string, e *outbox.Entry) (int, error) {
	b, hosted := h.buddy(e.User)
	if !hosted {
		h.ctr.tierLost[core.TierGuaranteed].Add1()
		return 0, fmt.Errorf("hub: outbox envelope for unhosted user %q: %w", e.User, outbox.ErrDrop)
	}
	reg, mode, _ := h.plan(b, e.Category)
	blocks := len(mode.Blocks)
	if e.Offset >= blocks {
		e.Offset = blocks - 1 // plan shrank since the offset advanced
	}
	if e.Offset > 0 {
		mode = &dmode.Mode{Name: mode.Name, Blocks: mode.Blocks[e.Offset:]}
	}
	h.redoWire, _ = e.Alert.AppendWire(h.redoWire[:0]) // nil on error, which the executor reports
	rep, err := h.exec.DeliverScratch(h.deliveryContext(e.User, h.shardOf(e.User).id), e.Alert, dedup[len(e.User)+len(keySep):], h.redoWire, reg, mode, h.redo)
	if f := h.cfg.onDelivery; f != nil {
		f(e.User, rep, err)
	}
	if err == nil {
		h.countDelivered(core.TierGuaranteed, rep)
	}
	return blocks, err
}

// replayRec is one unprocessed WAL record decoded for re-enqueue.
type replayRec struct {
	b   *Buddy
	a   alert.Alert
	key string
}

// replayable decodes one unprocessed WAL record into r for re-enqueue,
// reusing r's keyword backing (alert.Alert.UnmarshalBinary). An
// outbox envelope is the outbox's and is skipped untouched. A record
// that can never be routed — no user in its key, a user no longer
// hosted, an unparsable payload — or whose alert an envelope in handed
// already owns (the handoff batch torn after its RECV) is tombstoned,
// journaled, and counted, and it reports false. only restricts the
// scan to one shard (RestartShard): other shards' records are skipped
// untouched, as is a malformed key, whose shard is unknown — the next
// process start (only == nil) tombstones it.
func (h *Hub) replayable(rec plog.Record, only *shard, handed map[string]struct{}, r *replayRec) bool {
	if outbox.IsEnvelope(rec.Payload) {
		return false
	}
	tombstone := func(format string, args ...any) {
		h.journal(faults.KindReplay, "tombstoning "+format, args...)
		_ = h.wal.MarkProcessedAsync(rec.Key, h.cfg.Clock.Now()) // a lost one is redone next Start
		h.counters.Add1("tombstoned")
	}
	user, _, keyed := strings.Cut(rec.Key, keySep)
	if only != nil && (!keyed || h.shardOf(user) != only) {
		return false
	}
	if !keyed {
		tombstone("WAL entry with malformed key %q", rec.Key)
		return false
	}
	if _, owned := handed[rec.Key]; owned {
		tombstone("WAL entry %q superseded by its outbox envelope", rec.Key)
		return false
	}
	b, hosted := h.buddy(user)
	if !hosted {
		tombstone("WAL entry for unhosted user %q", user)
		return false
	}
	r.b, r.key = b, rec.Key
	if err := r.a.UnmarshalBinary(rec.Payload); err != nil {
		tombstone("unparsable WAL entry %q: %v", rec.Key, err)
		return false
	}
	return true
}

// replay recovers the WAL's unprocessed records: the outbox loads the
// envelopes among them, and every alert is re-enqueued in log order
// (exact per-user order). Runs before admission opens, so replayed
// alerts are chained ahead of new traffic.
func (h *Hub) replay() {
	recs := h.wal.Unprocessed()
	handed := h.outbox.Load(recs)
	var r replayRec // one decode buffer: requeue's fill copies the keywords out
	for _, rec := range recs {
		if h.replayable(rec, nil, handed, &r) {
			h.requeue(h.shardOf(r.b.user), &r)
		}
	}
}

// requeue admits one replayed record to sh's current generation, whose
// workers must be live and draining — so the blocking reservation
// cannot wedge — as they are at startup and after a restart's
// generation swap. Without a journal no replay line is formatted: the
// arguments alone would cost allocations per replayed alert.
func (h *Hub) requeue(sh *shard, r *replayRec) {
	if h.cfg.Journal != nil {
		h.journal(faults.KindReplay, "shard %d: replaying unprocessed alert %s for %s", sh.id, r.key[len(r.b.user)+len(keySep):], r.b.user)
	}
	h.counters.Add1("replayed")
	sh.reserveBlocking()
	env := getEnvelope()
	env.fill(r.b, &r.a, r.key, h.cfg.Clock.Now())
	sh.enqueue(env, true)
}

// Kill abruptly terminates the hub, simulating a crash: admission stops
// immediately and every delivery stage abandons its chains and its
// in-flight window (delivered-but-unmarked alerts stay unprocessed in
// the WAL for the next incarnation to replay — the documented duplicate
// of the dedup contract). Teardown completes asynchronously — wait on
// Stopped() before reopening the WAL path. Kill is safe to call from
// inside the resolver or a delivery worker (the fault-injection path
// does exactly that).
func (h *Hub) Kill() {
	h.killOnce.Do(func() {
		h.accepting.Store(false)
		close(h.killed)
		for _, sh := range h.shards {
			sh.setState(ShardStopped)
			sh.killCurrent()
		}
		go h.shutdown()
	})
}

// Stopped is closed once the hub has fully shut down (stages retired,
// WAL flushed and closed).
func (h *Hub) Stopped() <-chan struct{} { return h.stopped }

// shutdown quiesces the delivery stages (unless killed, in which case
// chained and in-flight work is abandoned), stops the outbox, and
// closes the WAL. Runs at most once.
func (h *Hub) shutdown() {
	h.stopOnce.Do(func() {
		select {
		case <-h.killed:
			// Crash semantics: do not wait for delivery workers — they
			// observe the kill and abandon; the WAL replays their undone
			// entries. A worker racing past the kill check hits the
			// closed WAL and ErrClosed is tolerated, as does a
			// redelivery round racing its mark: it replays next
			// incarnation.
			h.outbox.Kill()
		default:
			// Graceful drain: Drain closed every current generation's
			// intake, so nothing new reaches the stages; wait for every
			// chained and in-flight envelope to finish and stage its DONE
			// record (guaranteed-tier exhaustions hand off to the outbox,
			// so the stages must quiesce before the outbox closes). Only
			// current generations are waited on: one abandoned by an
			// earlier restart (possibly still wedged) cannot block
			// shutdown.
			for _, sh := range h.shards {
				if d := sh.current(); d != nil {
					d.quiesce()
				}
			}
			_ = h.outbox.Close() // it closes no journal: the WAL below is its
		}
		h.closeErr = h.wal.Close()
		close(h.stopped)
	})
}

// Drain gracefully shuts the hub down: admission stops with
// ErrNotAccepting, every shard's intake closes, the delivery stages
// finish their chained and in-flight envelopes, and the WAL is flushed
// and closed. Taking each shard's lifecycle lock first means a
// restart or rejuvenation in flight finishes (or aborts) before its
// shard is closed — Drain never tears a generation swap in half.
func (h *Hub) Drain() error {
	h.accepting.Store(false)
	// Quiesce the async ingest pipeline: tickets already admitted keep
	// their ordering contract (commit → ack → enqueue), so wait for the
	// resolver to retire every outstanding burst before closing
	// shard intake. Bounded — a wedged WAL resolves tickets with errors
	// on Close below anyway.
	deadline := time.Now().Add(defaultQuiesceTimeout)
	for h.ingestPending.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	for _, sh := range h.shards {
		sh.lifeMu.Lock()
		sh.setState(ShardStopped)
		sh.closeIntake()
		sh.lifeMu.Unlock()
	}
	h.shutdown()
	<-h.stopped
	return h.closeErr
}

// RestartShard kills shard id's current generation and brings up a
// replacement that replays the shard's unprocessed WAL backlog, while
// every other shard keeps serving — the targeted-recovery escalation
// path for a wedged or misbehaving shard. Admission to the shard is
// rejected (OverloadError) for the duration; senders ride it out with
// their usual retry hint. reason lands in the fault journal. Ordering
// is load-bearing:
//
//  1. Close admission (state Restarting), then close the old
//     generation's intake and kill it — intake first, so no submit's
//     wg.Add can race the wait below.
//  2. Wait (bounded) for the old delivery workers to stop, so a
//     straggler cannot mark a record processed after the scan below
//     decided to replay it.
//  3. Scan the WAL for the shard's unprocessed records. The scan also
//     becomes the new generation's suppression set: a submitter that
//     reserved before the kill and enqueues after the swap would
//     otherwise double-route a record the replay owns.
//  4. Publish the new generation, reset the admission gauge (abandoned
//     reservations died with the old generation; nothing can reserve
//     until step 5).
//  5. Re-enqueue the backlog, then reopen admission.
func (h *Hub) RestartShard(id int, reason string) error {
	sh, err := h.shardByID(id)
	if err != nil {
		return err
	}
	sh.lifeMu.Lock()
	defer sh.lifeMu.Unlock()
	select {
	case <-h.killed:
		return ErrNotAccepting
	default:
	}
	if st := sh.State(); st != ShardRunning {
		return fmt.Errorf("hub: shard %d not restartable in state %s", sh.id, st)
	}
	sh.setState(ShardRestarting)
	old := sh.killCurrent()
	h.journal(faults.KindDaemonRestart, "shard %d: killing generation %d: %s", sh.id, sh.gen.Load(), reason)

	stopped := make(chan struct{})
	go func() { old.quiesce(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(defaultQuiesceTimeout):
		// A truly stuck goroutine (blocked inside a pipeline stage or a
		// delivery substrate, deaf to the kill) is abandoned for good.
		// If it later completes and marks a record the scan already
		// replayed, the downstream timestamp dedup absorbs the
		// duplicate — the documented contract for every crash window.
		h.journal(faults.KindUnrecovered, "shard %d: generation %d did not stop within %v; replaying anyway",
			sh.id, sh.gen.Load(), defaultQuiesceTimeout)
	}

	var backlog []replayRec
	suppress := make(map[string]struct{})
	for _, rec := range h.wal.Unprocessed() {
		var r replayRec // the backlog keeps each record's keywords
		if h.replayable(rec, sh, nil, &r) {
			suppress[r.key] = struct{}{}
			backlog = append(backlog, r)
		}
	}

	if !h.publishGen(sh, newDeliveryStage(h, sh, suppress)) {
		return ErrNotAccepting
	}
	// Reservations admitted by the dead generation died with it; a
	// straggler's release of one is floored at zero.
	sh.depth.Store(0)

	for i := range backlog {
		h.requeue(sh, &backlog[i])
	}
	sh.restarts.Add(1)
	select {
	case <-h.killed:
		sh.setState(ShardStopped)
	default:
		sh.setState(ShardRunning)
	}
	h.journal(faults.KindDaemonRestart, "shard %d: restarted as generation %d (%d replayed)", sh.id, sh.gen.Load(), len(backlog))
	return nil
}

// RejuvenateShard renews shard id in place and advances its
// generation: its delivery stage sheds what it grew under load
// (deliveryStage.renew). Nothing drains, admission never closes, and
// nothing is killed or replayed: ready and parked chains, workers, the
// timer wheel and every ack wait carry over, so per-user order holds
// and no alert is sent twice.
func (h *Hub) RejuvenateShard(id int) error {
	sh, err := h.shardByID(id)
	if err != nil {
		return err
	}
	sh.lifeMu.Lock()
	defer sh.lifeMu.Unlock()
	select {
	case <-h.killed:
		return ErrNotAccepting
	default:
	}
	if st := sh.State(); st != ShardRunning {
		return fmt.Errorf("hub: shard %d not rejuvenatable in state %s", sh.id, st)
	}
	sh.current().renew()
	gen := sh.gen.Add(1)
	sh.rejuvenations.Add(1)
	h.journal(faults.KindRejuvenation, "shard %d: rejuvenated as generation %d", sh.id, gen)
	return nil
}

// RejuvenateAll renews every shard in place, one at a time — rolling
// rejuvenation under live traffic, which never closes admission.
func (h *Hub) RejuvenateAll() error {
	for _, sh := range h.shards {
		if err := h.RejuvenateShard(sh.id); err != nil {
			return fmt.Errorf("hub: rolling rejuvenation stopped at shard %d: %w", sh.id, err)
		}
	}
	return nil
}

func (h *Hub) shardByID(id int) (*shard, error) {
	if id < 0 || id >= len(h.shards) {
		return nil, fmt.Errorf("hub: no shard %d (have %d)", id, len(h.shards))
	}
	return h.shards[id], nil
}

// CheckpointWAL forces a checkpoint + segment compaction on the WAL, as
// the background checkpoint does every defaultWALCheckpointEvery records.
func (h *Hub) CheckpointWAL() error { return h.wal.Checkpoint() }
