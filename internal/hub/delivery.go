package hub

import (
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/faults"
	"simba/internal/outbox"
	"simba/internal/timewheel"
)

// deliveredViaCounter names the per-channel-type delivery counter.
func deliveredViaCounter(t addr.Type) string {
	if t == "" {
		t = "?"
	}
	return "delivered-via-" + string(t)
}

// userQueue is one tenant's pending envelopes — an intrusive FIFO
// linked through their next pointers — run by at most one worker at a
// time so per-user FIFO is structural: a user's next envelope is routed
// only after the previous one (including its retries and WAL mark) has
// finished. A chain is born ready — linked through ready into its
// stage's FIFO of chains waiting for a worker — and lives until it
// empties. Nodes are pooled.
//
// The rest is the head's delivery in progress (attempt 0: not yet
// routed), everything it needs inline: its scratch (with its ack
// timeout), its retry backoff's timer, and its wire form in wireBuf
// unless it outgrows it. Waiting on an ack or a backoff, it is parked —
// held by no worker, out of the ready FIFO — until Wake, called once
// per park by the executor or the wheel, re-readies it.
//
// A stage takes its nodes from slabs of envSlab and keeps the ended
// ones on a free list, never sharing one with another stage: a node a
// kill abandons points at its dead stage, and a slab it shared with live
// nodes would keep that stage, and its hub, reachable.
type userQueue struct {
	user       string
	head, tail *envelope
	ready      *userQueue
	d          *deliveryStage

	env     *envelope
	scr     core.Scratch // points into itself: a node is never copied
	wire    []byte       // env's wire form, built at routing; kept across envelopes and recycles
	attempt int
	tier    core.Tier
	handed  time.Time
	backoff timewheel.Timer
	// backingOff: backoff is the wait in progress. parked: the delivery
	// waits for Wake; woken: Wake came while its worker still ran it.
	// The last two under the stage's mu.
	backingOff, parked, woken bool
	wireBuf                   [256]byte
}

// deliveryStage is one incarnation of a shard's restartable machinery —
// RestartShard swaps in the next, RejuvenateShard renews it in place —
// and its alert pipeline: the resolver submits each acknowledged
// envelope to its user's chain, and a worker routes the chain's head
// (route) and delivers it (perform), so one stalled evaluation or Send
// never serializes every tenant hashed to the shard. Envelopes for the
// same user are chained; envelopes for different users overlap.
// Killing a shard abandons its stage wholesale: a wedged worker keeps
// the dead stage, and the replacement gets a fresh kill signal, chains
// and timer wheel.
//
// A worker is a delivery-window slot: live workers never exceed
// deliveryWindow. A parked delivery costs its chain node and, for an
// ack, one Acks entry. A chain that becomes ready while no worker is
// free spawns one if the window has room, else waits for the first
// worker done with its step. Idle workers wait on the stage's
// condition variable; once the generation is killed, or drained and
// quiesced, they exit after emptying the ready FIFO.
type deliveryStage struct {
	h   *Hub
	sh  *shard
	rng *dist.RNG // forked per stage: backoff jitter never contends across shards

	// killed is closed (by kill) to abandon the generation: the workers
	// abandon their chains and exit, and everything undone stays
	// unprocessed in the WAL for replay. Hub-wide Kill kills every
	// shard's current stage; a targeted restart kills one, so sibling
	// shards' workers never notice.
	killed   chan struct{}
	killOnce sync.Once

	// closed marks the generation closed for intake; guarded by
	// shard.mu, and set before anything waits on the stage.
	closed bool

	// replaySuppress is the set of WAL keys this generation replayed at
	// birth (kill+replay restart only; nil otherwise). A submitter that
	// reserved a slot on the previous generation and enqueues after the
	// swap would otherwise double-route an alert the replay already
	// owns; enqueue drops those (the replayed copy delivers). The map is
	// read-only after the generation is published — no lock needed — and
	// can never suppress a legitimate later submission, because the WAL
	// dedup (Has) re-acks any resubmission of a logged key without
	// enqueueing it.
	replaySuppress map[string]struct{}

	// wheel carries the stage's retry backoffs and ack timeouts (their
	// Timers live in the chain nodes: no per-wait allocation, one clock
	// timer).
	wheel *timewheel.Wheel

	mu    sync.Mutex
	users map[string]*userQueue
	wg    sync.WaitGroup // live chains; waited by quiesce, abandoned by Kill

	// The ready FIFO and the worker accounting, changed under mu. live
	// counts the workers and busy those running a chain; the others are
	// free, and each looks at the FIFO before it waits. The shard's check
	// reads live and busy lock-free.
	readyHead, readyTail *userQueue
	nready               int
	live, busy           atomic.Int64
	wake                 *sync.Cond // on mu: a chain became ready, or the stage was released
	released             bool       // workers exit instead of parking
	workers              sync.WaitGroup
	workFn               func()     // d.work, made once: a spawn wraps nothing
	freeChains           *userQueue // free list of chain nodes, linked through ready
	// spawned counts worker launches and peakChains the most chains that
	// were ever live at once (tests pin spawned <= peakChains).
	spawned, peakChains int
}

// newDeliveryStage builds sh's next stage, replaying the keys in
// suppress; the caller hands it to publishGen.
func newDeliveryStage(h *Hub, sh *shard, suppress map[string]struct{}) *deliveryStage {
	d := &deliveryStage{
		h:              h,
		sh:             sh,
		rng:            sh.rng.Fork("delivery"),
		killed:         make(chan struct{}),
		replaySuppress: suppress,
		wheel:          timewheel.New(h.cfg.Clock, timewheel.Options{}),
		users:          make(map[string]*userQueue),
	}
	d.wake = sync.NewCond(&d.mu)
	d.workFn = d.work
	return d
}

// kill abandons the generation: idle workers, which cannot see the kill
// signal, are released to exit, and parked deliveries, which no worker
// holds, are abandoned and their chains ended. Idempotent.
func (d *deliveryStage) kill() {
	d.killOnce.Do(func() {
		close(d.killed)
		d.mu.Lock()
		d.released = true
		d.wake.Broadcast()
		var parked []*userQueue
		for _, q := range d.users {
			if q.parked {
				q.parked = false
				parked = append(parked, q)
				d.endChain(q, false)
			}
		}
		d.mu.Unlock()
		for _, q := range parked {
			d.abandon(q)
		}
	})
}

// renew sheds what the stage grew under load, for rejuvenation: the
// chain map is rebuilt at its live size, because a Go map never gives
// back buckets, and the free chain nodes go with the report arrays and
// wire buffers they grew. Ready and parked chains, the workers, the
// wheel and the Acks entries carry over untouched, so per-user order
// holds and every ack wait survives.
func (d *deliveryStage) renew() {
	d.mu.Lock()
	defer d.mu.Unlock()
	users := make(map[string]*userQueue, len(d.users))
	for user, q := range d.users {
		users[user] = q
	}
	d.users, d.freeChains = users, nil
}

// submit hands one acknowledged envelope to the stage. Called by the
// resolver and by replay, each in journal order, so envelopes for one
// user arrive in staging order; it never blocks — backlog is bounded
// by the shard's admission depth, whose reservation is held until the
// envelope finishes. A user without a live chain gets one, queued
// ready.
func (d *deliveryStage) submit(env *envelope) {
	user := env.buddy.user
	d.mu.Lock()
	if q, ok := d.users[user]; ok {
		// The user has a live chain: append to it (per-user FIFO). Its
		// worker, or its parked delivery's Wake, takes the envelope.
		if q.head == nil {
			q.head = env
		} else {
			q.tail.next = env
		}
		q.tail = env
		d.mu.Unlock()
		return
	}
	if d.freeChains == nil {
		slab := new([envSlab]userQueue)
		for i := range slab {
			q := &slab[i]
			q.d, q.wire, q.ready, d.freeChains = d, q.wireBuf[:0], d.freeChains, q
			q.scr.SetWheel(d.wheel)
		}
	}
	q := d.freeChains
	d.freeChains, q.ready = q.ready, nil
	q.user, q.head, q.tail = user, env, env
	d.users[user] = q
	d.peakChains = max(d.peakChains, len(d.users))
	d.wg.Add(1)
	d.readyLocked(q)
	d.mu.Unlock()
}

// readyLocked queues q for a worker, spawning one only when no live
// worker is free and the window has room.
func (d *deliveryStage) readyLocked(q *userQueue) {
	if d.readyTail == nil {
		d.readyHead = q
	} else {
		d.readyTail.ready = q
	}
	d.readyTail = q
	d.nready++
	if live := d.live.Load(); int64(d.nready) > live-d.busy.Load() && live < int64(d.h.cfg.deliveryWindow) {
		d.live.Add(1)
		d.spawned++
		d.workers.Add(1)
		go d.workFn()
		return
	}
	d.wake.Signal()
}

// Wake resumes q's parked delivery, for the executor and the wheel: its
// chain rejoins the ready FIFO. A Wake that beats its worker's park is
// left for the worker.
func (q *userQueue) Wake() {
	d := q.d
	d.mu.Lock()
	if q.woken = !q.parked; q.parked {
		q.parked = false
		d.readyLocked(q)
	}
	d.mu.Unlock()
}

// work is one worker's life: take the oldest ready chain, run it until
// it parks or ends, and take the next; park when none is ready; exit
// once the stage is released and the FIFO is empty.
func (d *deliveryStage) work() {
	defer d.workers.Done()
	d.mu.Lock()
	for {
		q := d.readyHead
		if q == nil {
			if d.released {
				d.live.Add(-1)
				d.mu.Unlock()
				return
			}
			d.wake.Wait()
			continue
		}
		if d.readyHead = q.ready; d.readyHead == nil {
			d.readyTail = nil
		}
		q.ready = nil
		d.nready--
		d.busy.Add(1)
		d.sh.progress.Beat(d.h.cfg.Clock.Now()) // the watchdog times a step from its start, not from before an idle spell or a park
		d.run(q)
		d.busy.Add(-1)
	}
}

// run drives chain q, with mu held on entry and exit, envelope by
// envelope until the head parks or the chain empties and ends. A chain
// whose generation was killed ends at its next step: the undone entries
// replay from the WAL (into this shard's next generation, or the next
// process incarnation).
func (d *deliveryStage) run(q *userQueue) {
	for {
		if q.env == nil {
			env := q.head
			if env == nil {
				d.endChain(q, true)
				return
			}
			if q.head = env.next; q.head == nil {
				q.tail = nil
			}
			env.next = nil
			q.env, q.attempt = env, 0
		}
		d.mu.Unlock()
		parked, ok := d.advance(q)
		d.mu.Lock()
		if !ok || parked && d.released { // killed: kill saw no parked delivery here
			d.mu.Unlock()
			d.abandon(q)
			d.mu.Lock()
			d.endChain(q, q.attempt == 0)
			return
		}
		d.sh.progress.Beat(d.h.cfg.Clock.Now())
		switch {
		case !parked:
			q.env = nil
		case q.woken:
			q.woken = false // resumed already: go on
		default:
			q.parked = true
			return
		}
	}
}

// endChain ends q, under mu: its map entry goes (a churn of one-shot
// tenants must not grow the users map). recycle is false for a chain a
// kill abandoned mid-delivery, which a Wake under way may still touch.
// The reset is field by field, so the scratch's and the wire's backing
// survive for the node's next chain; routing sets the rest. A node
// recycled with a wait still open — its backoff or its scratch's ack
// wait — is a poison hit under pool poisoning: its timer could wake the
// node's next chain.
func (d *deliveryStage) endChain(q *userQueue, recycle bool) {
	delete(d.users, q.user)
	if recycle {
		if poolPoison.Load() && (q.backingOff || q.scr.Waiting()) {
			poolPoisonHits.Add(1)
		}
		q.user, q.head, q.tail, q.env = "", nil, nil, nil
		q.attempt, q.parked, q.woken = 0, false, false
		q.ready, d.freeChains = d.freeChains, q
	}
	d.wg.Done()
}

// abandon cancels q's parked wait, if any: its ack registrations and
// its timeout, or its backoff. Not under mu, which resumes take inside
// the wheel's lock.
func (d *deliveryStage) abandon(q *userQueue) {
	d.h.exec.Abandon(&q.scr)
	d.wheel.Release(&q.backoff)
	q.backingOff = false
}

// quiesce waits for every live chain to finish and then retires the
// workers. The generation's intake must be closed under shard.mu first,
// so nothing submits any more (a submit's wg.Add must not race the
// Wait); after a kill the chains end by abandoning, otherwise by
// completing.
func (d *deliveryStage) quiesce() {
	d.wg.Wait()
	d.mu.Lock()
	d.released = true
	d.wake.Broadcast()
	d.mu.Unlock()
	d.workers.Wait()
}

// advance routes q's head, or resumes its delivery from an ack wait or a
// backoff. parked: the delivery waits again; !ok: a kill abandoned it.
func (d *deliveryStage) advance(q *userQueue) (parked, ok bool) {
	if q.attempt == 0 {
		return d.route(q)
	}
	select {
	case <-d.killed:
		return false, false
	default:
	}
	if q.backingOff { // the backoff fired: the wheel unlinked its timer
		q.backingOff = false
		q.attempt++
		q.scr.Rewind()
	}
	return d.perform(q)
}

// perform runs one executor Step of q's attempt, counted in the shard's
// in-flight gauge. A failed attempt — every block exhausted — is retried
// after a backoff parked on the stage's wheel; see settle for the rest.
// The report and error are the scratch's, borrowed.
func (d *deliveryStage) perform(q *userQueue) (parked, ok bool) {
	d.sh.inflight.Inc()
	parked = d.h.exec.Step(&q.scr)
	d.sh.inflight.Dec()
	if parked {
		return true, true
	}
	rep, err := q.scr.Result()
	if f := d.h.cfg.onDelivery; f != nil {
		f(q.env.buddy.user, rep, err)
	}
	if err != nil && q.attempt < d.h.cfg.deliveryMaxAttempts {
		d.h.ctr.deliveryRetries.Add1()
		q.backingOff = true
		d.wheel.Arm(&q.backoff, d.backoff(q.attempt), q)
		return true, true
	}
	return false, d.settle(q, rep, err)
}

// settle ends q's delivery after its last attempt, and only then stages
// the WAL DONE record; false means a kill abandoned the envelope before
// the mark, leaving the entry to replay. Exhaustion depends on the QoS
// tier: best-effort drops the alert (counted as lost); guaranteed hands
// the envelope to the retry outbox, whose record replaces the WAL entry
// in one commit. An envelope that completes (delivered, dropped, or
// handed off) goes through finish; abandoned ones are left to the GC.
func (d *deliveryStage) settle(q *userQueue, rep *core.Report, err error) bool {
	h, env := d.h, q.env
	switch {
	case err == nil:
		h.countDelivered(q.tier, rep)
	case q.tier != core.TierGuaranteed:
		h.ctr.undeliverable.Add1()
		h.ctr.tierLost[q.tier].Add1()
	case d.handoff(env, q.attempt):
		h.ctr.outboxHandoffs.Add1()
	default:
		// The envelope could not be staged in the outbox; leave
		// the WAL entry unprocessed so the next incarnation replays the
		// alert instead of losing it.
		h.deliverLat.Observe(h.cfg.Clock.Since(q.handed))
		d.sh.release()
		return true
	}
	h.deliverLat.Observe(h.cfg.Clock.Since(q.handed))
	if h.fault(faultBeforeMark, d.sh.id, d.killed) {
		return false
	}
	select {
	case <-h.killed:
		return false // killed after delivery: the duplicate on replay is the dedup contract's case
	default:
	}
	d.finish(env)
	return true
}

// handoff moves an attempt-exhausted guaranteed-tier delivery into the
// retry outbox: one WAL ReplaceAsync stages the envelope and the DONE
// retiring the alert's entry in one batch, which no longer blocks the
// worker on the disk: it rides ingest's next commit, and until then the
// alert's RECV replays after a crash. false means the outbox refused it
// (closed, a poisoned journal); the entry stays unprocessed. The outbox
// keeps the alert, so the pooled envelope's inline alert is cloned.
func (d *deliveryStage) handoff(env *envelope, attempts int) bool {
	h := d.h
	err := h.outbox.Handoff(env.key, outbox.Entry{
		User:     env.buddy.user,
		Category: env.category,
		Alert:    env.alert.Clone(),
		Attempts: attempts,
	})
	if h.cfg.Journal == nil {
		return err == nil // no journal: format no line (see requeue)
	}
	alertKey := env.key[len(env.buddy.user)+len(keySep):]
	if err != nil {
		h.journal(faults.KindOutbox, "outbox handoff failed for %s alert %s: %v", env.buddy.user, alertKey, err)
		return false
	}
	h.journal(faults.KindOutbox, "handed %s alert %s to the outbox after %d attempts", env.buddy.user, alertKey, attempts)
	return true
}

// backoff is the wait before retry attempt+1: exponential in the
// attempt number, capped, with multiplicative jitter from the stage's
// forked RNG so colliding retries across tenants decorrelate.
func (d *deliveryStage) backoff(attempt int) time.Duration {
	h := d.h
	delay := h.cfg.deliveryBackoff
	for i := 1; i < attempt && delay < h.cfg.deliveryBackoffCap; i++ {
		delay *= 2
	}
	if delay > h.cfg.deliveryBackoffCap {
		delay = h.cfg.deliveryBackoffCap
	}
	// Full jitter over the upper half: [delay/2, delay).
	return delay/2 + time.Duration(d.rng.Float64()*float64(delay/2))
}
