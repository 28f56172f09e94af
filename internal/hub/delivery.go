package hub

import (
	"sync"
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
// linked through their next pointers — owned by at most one worker
// goroutine at a time so per-user FIFO is structural, not incidental: a
// user's next envelope is routed only after the previous one (including
// its retries and WAL mark) has finished. Queue nodes are
// pooled; the envelopes themselves carry the links, so chaining a
// backlog allocates nothing. A chain is born ready — linked through
// ready into its stage's FIFO of chains waiting for a worker — and is
// run by exactly one worker from then until it empties.
type userQueue struct {
	user       string
	head, tail *envelope
	ready      *userQueue
}

var userQueuePool = sync.Pool{New: func() any { return new(userQueue) }}

// deliveryStage is one generation of a shard — one incarnation of its
// restartable machinery — and that generation's alert pipeline: the
// resolver submits each acknowledged envelope to its user's chain, and
// the worker that owns the chain routes it (route) and delivers it
// (perform), its channel Sends under a bounded in-flight window, so one
// stalled evaluation or Send never serializes every tenant hashed to
// the shard. Ordering contract: envelopes for the same user are
// chained; envelopes for different users overlap. Killing a shard
// abandons its stage wholesale: a wedged worker keeps the dead stage,
// and the replacement gets a fresh kill signal, chains and timer wheel.
//
// A window slot covers a Send, not a delivery: the stage is the
// executor's core.SendGate, so a worker takes a slot before a block's
// first Send and gives it back before it parks — in an ack wait, in a
// retry backoff, or to stage its DONE. A parked delivery costs its
// worker goroutine and its admission reservation, nothing else, so
// parked waits are bounded by the shard's admission depth while the
// window keeps bounding what actually loads the substrates.
//
// Workers are standing goroutines, not one per chain. Spawn: a chain
// that becomes ready while every live worker is running a chain (or
// already owed to an earlier ready chain) starts one, so live workers
// never exceed the peak number of concurrent chains, which the shard's
// admission depth bounds. Park: a worker that finds no ready chain
// waits on the stage's condition variable, keeping its executor scratch
// for its next chain. Retire: release — called when the generation is
// killed, and by quiesce once a drained generation's last chain has
// finished — lets every worker exit after it has emptied the ready
// FIFO, so nothing of a stage outlives its generation.
type deliveryStage struct {
	h   *Hub
	sh  *shard
	n   int64     // generation number, monotone per shard
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

	// wheel multiplexes the stage's retry backoffs and its workers' ack
	// waits onto one clock timer (pooled nodes, no per-wait allocation).
	wheel *timewheel.Wheel

	// window bounds concurrent channel Sends (not queued or parked
	// work, which the shard's admission depth already bounds). The
	// in-flight gauge lives on the shard so its peak survives generation
	// swaps.
	window chan struct{}

	mu    sync.Mutex
	users map[string]*userQueue
	wg    sync.WaitGroup // live chains; waited by quiesce, abandoned by Kill

	// The ready FIFO and the worker accounting, all under mu. free counts
	// the workers not running a chain — parked, or between chains — each
	// of which looks at the FIFO before it parks, so a chain needs a new
	// worker only when nready would exceed free.
	readyHead, readyTail *userQueue
	nready, free         int
	wake                 *sync.Cond // on mu: a chain became ready, or the stage was released
	released             bool       // workers exit instead of parking
	workers              sync.WaitGroup
	// spawned counts worker launches and peakChains the most chains that
	// were ever live at once (tests pin spawned <= peakChains).
	spawned, peakChains int
}

// newDeliveryStage builds generation n of sh, replaying the keys in
// suppress; the caller hands it to publishGen.
func newDeliveryStage(h *Hub, sh *shard, n int64, suppress map[string]struct{}) *deliveryStage {
	d := &deliveryStage{
		h:              h,
		sh:             sh,
		n:              n,
		rng:            sh.rng.Fork("delivery"),
		killed:         make(chan struct{}),
		replaySuppress: suppress,
		wheel:          timewheel.New(h.cfg.Clock, timewheel.Options{Poison: poolPoison.Load()}),
		window:         make(chan struct{}, h.cfg.DeliveryWindow),
		users:          make(map[string]*userQueue),
	}
	d.wake = sync.NewCond(&d.mu)
	return d
}

// kill abandons the generation and retires its workers: the ones
// parked for a ready chain cannot see the kill signal, so they are
// released here, at the one place every kill goes through. Idempotent.
func (d *deliveryStage) kill() {
	d.killOnce.Do(func() {
		close(d.killed)
		d.release()
	})
}

// submit hands one acknowledged envelope to the stage. Called by the
// resolver and by replay, each in journal order, so envelopes for one
// user arrive in staging order; it never blocks — backlog is bounded
// by the shard's admission depth, whose reservation is held until the
// envelope finishes. A user without a live chain gets one, queued
// ready, and a worker if none of the free ones can take it.
func (d *deliveryStage) submit(env *envelope) {
	user := env.buddy.user
	d.mu.Lock()
	if q, ok := d.users[user]; ok {
		// The user has a live chain: append to it (per-user FIFO). An
		// empty chain (its worker is busy with the last envelope)
		// restarts from the head — the worker re-checks under the lock
		// before ending the chain, so the envelope is seen.
		if q.head == nil {
			q.head = env
		} else {
			q.tail.next = env
		}
		q.tail = env
		d.mu.Unlock()
		return
	}
	q := userQueuePool.Get().(*userQueue)
	q.user, q.head, q.tail = user, env, env
	d.users[user] = q
	d.peakChains = max(d.peakChains, len(d.users))
	d.wg.Add(1)
	if d.readyTail == nil {
		d.readyHead = q
	} else {
		d.readyTail.ready = q
	}
	d.readyTail = q
	d.nready++
	spawn := d.nready > d.free
	if spawn {
		d.free++
		d.spawned++
		d.workers.Add(1)
	} else {
		d.wake.Signal()
	}
	d.mu.Unlock()
	if spawn {
		go d.work()
	}
}

// work is one worker's life: take the oldest ready chain, route it
// envelope by envelope, end it — delete its map entry (a churn of
// one-shot tenants must not grow the users map) and recycle the queue
// node — and take the next; park when none is ready; exit once the
// stage is released and the FIFO is empty. A chain whose generation was
// killed ends at its first envelope: the undone entries replay from the
// WAL (into this shard's next generation, or the next process
// incarnation), and ending the chain all the same means a kill
// mid-backlog cannot strand its map entry. The worker owns its executor
// scratch for its lifetime.
func (d *deliveryStage) work() {
	defer d.workers.Done()
	scr := core.NewScratch(d.wheel)
	scr.SetGate(d)
	d.mu.Lock()
	for {
		q := d.readyHead
		if q == nil {
			if d.released {
				d.free--
				d.mu.Unlock()
				return
			}
			d.wake.Wait()
			continue
		}
		if d.readyHead = q.ready; d.readyHead == nil {
			d.readyTail = nil
		}
		d.nready--
		d.free--
		for env := q.head; env != nil; env = q.head {
			if q.head = env.next; q.head == nil {
				q.tail = nil
			}
			d.mu.Unlock()
			env.next = nil
			handled := d.route(env, scr)
			if handled {
				d.sh.beat(d.h.cfg.Clock.Now())
			}
			d.mu.Lock()
			if !handled {
				break // generation killed: the rest of the chain is abandoned with it
			}
		}
		delete(d.users, q.user)
		d.free++
		*q = userQueue{}
		userQueuePool.Put(q)
		d.wg.Done()
	}
}

// release retires the stage's workers: parked ones wake and exit, busy
// ones exit once the ready FIFO is empty. Idempotent; must not be
// called with mu held.
func (d *deliveryStage) release() {
	d.mu.Lock()
	d.released = true
	d.wake.Broadcast()
	d.mu.Unlock()
}

// quiesce waits for every live chain to finish and then for the workers
// to exit. The generation's intake must be closed under shard.mu first,
// so nothing submits any more (a submit's wg.Add must not race the
// Wait); after a kill the chains end by abandoning, otherwise by
// completing.
func (d *deliveryStage) quiesce() {
	d.wg.Wait()
	d.release()
	d.workers.Wait()
}

// Acquire claims one in-flight slot for a worker about to Send
// (core.SendGate), honoring the generation's kill both before and after
// the wait so an abandoned stage stops deterministically.
func (d *deliveryStage) Acquire() bool {
	select {
	case <-d.killed:
		return false
	default:
	}
	select {
	case <-d.killed:
		return false
	case d.window <- struct{}{}:
	}
	select {
	case <-d.killed:
		<-d.window
		return false
	default:
	}
	d.sh.inflight.Inc()
	return true
}

// Release returns the slot (core.SendGate).
func (d *deliveryStage) Release() {
	d.sh.inflight.Dec()
	<-d.window
}

// perform executes one delivery: run the tenant's delivery mode (or
// the flat substrate plan) through the shared executor, retry failed
// attempts — every block exhausted — with capped exponential backoff +
// jitter, and only then stage the WAL DONE record. It reports false
// when a kill abandoned the envelope before the mark, leaving the entry
// for the next incarnation to replay. What attempt exhaustion means
// depends on the QoS tier: best-effort drops the alert (counted as
// lost); guaranteed hands the envelope to the retry outbox, whose
// record replaces the WAL entry in one commit, and the outbox
// redelivers with escalating backoff.
//
// The worker holds no window slot here: the executor takes one around
// each block's Sends and has returned it by the time DeliverScratch
// comes back, so backoffs, the outbox handoff and the mark never
// occupy the window.
//
// The routed alert's wire form is encoded once, into envelope-owned
// storage, and reused by every attempt; the report and a failed
// attempt's error land in the worker's scratch. An envelope that
// completes (delivered, dropped, or handed off) goes through finish;
// abandoned paths leave recycling to the GC. handed is when routing
// ended, the start of the deliver-stage latency split.
func (d *deliveryStage) perform(env *envelope, scr *core.Scratch, handed time.Time) bool {
	h := d.h
	b := env.buddy
	reg, mode, tier := h.plan(b, env.category)
	ctx := h.deliveryContext(b.user, d.sh.id)
	// env.key is user + keySep + dedup-key; slice off the alert key so
	// the executor does not rebuild it per attempt.
	alertKey := env.key[len(b.user)+len(keySep):]
	payload, perr := env.alert.AppendWire(env.payload[:0])
	if perr != nil {
		payload = nil // unreachable for validated alerts; executor re-derives
	} else {
		env.payload = payload
	}
	for attempt := 1; ; attempt++ {
		rep, err := h.exec.DeliverScratch(ctx, &env.alert, alertKey, payload, reg, mode, scr)
		if err == core.ErrAbandoned {
			return false // killed before a Send: nothing to observe, nothing to mark
		}
		if f := h.cfg.OnDelivery; f != nil {
			f(b.user, rep, err)
		}
		if err == nil {
			h.countDelivered(b, tier, rep)
			break
		}
		if attempt >= h.cfg.DeliveryMaxAttempts {
			if tier == core.TierGuaranteed {
				if !d.handoff(env, attempt) {
					// The envelope could not be made durable in the
					// outbox; leave the WAL entry unprocessed so the next
					// incarnation replays the alert instead of losing it.
					h.deliverLat.Observe(h.cfg.Clock.Since(handed))
					d.sh.release()
					return true
				}
				h.ctr.outboxHandoffs.Add1()
			} else {
				h.ctr.undeliverable.Add1()
				h.ctr.tierLost[tier].Add1()
			}
			break
		}
		h.ctr.deliveryRetries.Add1()
		if !d.backoff(attempt) {
			return false // killed mid-backoff
		}
	}
	h.deliverLat.Observe(h.cfg.Clock.Since(handed))
	if h.fault(FaultBeforeMark, d.sh.id, d.killed) {
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
// retry outbox: one WAL Replace journals the envelope and retires the
// alert's entry in the same batch and fsync, so every cut of the
// journal leaves exactly one record owning the alert. false means the
// outbox refused it (closed during shutdown, a failed commit) and the
// entry stays unprocessed. The outbox retains the alert beyond this
// call, so the pooled envelope's inline alert is cloned.
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

// backoff sleeps before retry attempt+1: exponential in the attempt
// number, capped, with multiplicative jitter from the stage's forked
// RNG so colliding retries across tenants decorrelate. The wait rides
// the stage's timer wheel — a pooled node, not a fresh clock timer.
// Returns false if the stage's generation was killed during the wait.
func (d *deliveryStage) backoff(attempt int) bool {
	h := d.h
	delay := h.cfg.DeliveryBackoff
	for i := 1; i < attempt && delay < h.cfg.DeliveryBackoffCap; i++ {
		delay *= 2
	}
	if delay > h.cfg.DeliveryBackoffCap {
		delay = h.cfg.DeliveryBackoffCap
	}
	// Full jitter over the upper half: [delay/2, delay).
	delay = delay/2 + time.Duration(d.rng.Float64()*float64(delay/2))
	t := d.wheel.After(delay)
	select {
	case <-d.killed:
		d.wheel.Release(t)
		return false
	case <-t.C():
		d.wheel.Release(t)
		return true
	}
}
