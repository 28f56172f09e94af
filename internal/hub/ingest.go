package hub

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"simba/internal/alert"
	"simba/internal/plog"
)

// Submission is one alert offered to SubmitBatch on behalf of a user.
type Submission struct {
	User  string
	Alert *alert.Alert
}

// Submit offers one alert for the user. A nil return is the hub's
// acknowledgement: the alert is durably logged and will be routed (or
// replayed by the next incarnation). Errors mean NOT acknowledged —
// OverloadError asks the sender to retry after the hint; other errors
// indicate rejection (unknown user, invalid alert, closed hub).
// Submit is the size-1 case of SubmitBatch.
func (h *Hub) Submit(user string, a *alert.Alert) error {
	return h.SubmitBatch([]Submission{{User: user, Alert: a}})[0]
}

// submitPending is one burst entry that passed validation and awaits
// admission + the batch fsync.
type submitPending struct {
	idx    int
	buddy  *Buddy
	a      *alert.Alert
	keyEnd int    // where the key ends in the burst's key buffer; it starts where the previous entry's ends
	key    string // that span of the key slab, once the buffer has become it
	sh     *shard // nil for duplicates
	dup    bool   // already durable (or duplicated within the burst): re-ack only
}

// keyChunk is the size of one key arena chunk (see stage).
const keyChunk = 8 << 10

// submitScratch is everything stage builds that does not outlive the
// call: the key buffer, the dedup set, the pending entries, the
// per-shard admission counts, and the journal entries handed to the WAL
// with the buffer their alert records are encoded into (the WAL copies
// what it keeps while staging). Pooled, with the key arena's current
// chunk, whose strings do outlive the call.
type submitScratch struct {
	keys    []byte
	arena   strings.Builder
	seen    map[string]struct{}
	pending []submitPending
	counts  []int64
	recs    []plog.BatchEntry
	records []byte
}

var submitScratchPool = sync.Pool{New: func() any {
	return &submitScratch{seen: make(map[string]struct{})}
}}

// recycle returns the scratch to the pool holding capacity only: the
// entries' pointers into the caller's burst, the tenants and the
// envelope payloads are all dropped.
func (s *submitScratch) recycle() {
	s.keys = s.keys[:0]
	clear(s.seen)
	clear(s.pending)
	s.pending = s.pending[:0]
	clear(s.recs)
	s.recs = s.recs[:0]
	s.records = s.records[:0]
	submitScratchPool.Put(s)
}

// ticket is one burst's pending acknowledgement: it resolves once the
// commit its RECV records joined lands and the admitted entries are
// enqueued to their shards, so admission→log→ack→enqueue holds on both
// paths. Pooled: a ticket goes back after onCommitted returns
// (SubmitBatchAsync) or after SubmitBatch's wait, and nothing touches
// it afterwards.
type ticket struct {
	n           int            // burst length
	errs        []error        // nil until an entry fails (fail)
	resolved    sync.WaitGroup // SubmitBatch's wait; one count, dropped when the ticket resolves
	onCommitted func([]error)  // nil on the SubmitBatch path
	start       time.Time
	// c is the burst's one group commit and entries the burst entries
	// (fresh envelopes and duplicate re-acks) whose fate it decides;
	// staged says the burst went to the resolver.
	c       plog.Commit
	entries []ticketEntry
	staged  bool
}

// ticketEntry is one staged burst entry inside a ticket.
type ticketEntry struct {
	idx   int
	dup   bool
	buddy *Buddy
	sh    *shard    // nil for duplicates
	env   *envelope // nil for duplicates
}

var ticketPool = sync.Pool{New: func() any { return new(ticket) }}

// noErrors returns n nils from h.noErrs, capacity-limited so an append
// copies rather than writes into the shared array. A longer burst gets
// a fresh slice, one allocation across that many alerts.
func (h *Hub) noErrors(n int) []error {
	if n > len(h.noErrs) {
		return make([]error, n)
	}
	return h.noErrs[:n:n]
}

// fail records entry i's error, allocating the burst's own result on
// the first failure: the slow path, which allocates its error anyway.
func (t *ticket) fail(i int, err error) {
	if t.errs == nil {
		t.errs = make([]error, t.n)
	}
	t.errs[i] = err
}

// recycle hands t back to the pool. Under pool poisoning it first
// checks that the shared no-error result still holds only nils; a
// non-nil entry there is a caller (or the hub) writing into it.
func (h *Hub) recycle(t *ticket) {
	if poolPoison.Load() && slices.ContainsFunc(h.noErrs[:], func(err error) bool { return err != nil }) {
		poolPoisonHits.Add(1)
	}
	clear(t.entries) // no envelope, shard or tenant pointer outlives the ticket
	t.entries = t.entries[:0]
	t.errs, t.onCommitted, t.c, t.staged = nil, nil, plog.Commit{}, false
	ticketPool.Put(t)
}

// SubmitBatchAsync is the pipelined ingest path: it validates, admits,
// and stages the burst's RECV records exactly as SubmitBatch does, but
// returns without blocking on the WAL fsync. The burst is acknowledged
// — and only then enqueued for routing — when its commit lands;
// onCommitted (optional) runs once at that point with the per-entry
// results, on the resolver goroutine, so it must not block. A submitter
// keeps several bursts in flight by calling again before the callbacks
// run; the resolver's inbox bounds the hub-wide total at
// defaultAsyncInFlight staged bursts, and a submitter past the bound
// blocks here after staging, until the resolver takes one.
//
// Entries that fail before staging (invalid alert, unknown user,
// overloaded shard) are reported in errs exactly as SubmitBatch reports
// them. A commit whose write or fsync fails NACKs every entry the burst
// staged. errs is read-only and stays valid after the callback: a
// burst with no failed entry gets a shared slice of nils, one with a
// failure its own slice.
func (h *Hub) SubmitBatchAsync(subs []Submission, onCommitted func(errs []error)) {
	if onCommitted == nil {
		onCommitted = func([]error) {}
	}
	t := ticketPool.Get().(*ticket)
	t.n, t.onCommitted = len(subs), onCommitted
	h.submit(t, subs)
}

// SubmitBatch offers a burst of alerts, amortizing the ingest path's
// fixed costs: one validation/dedup pass, bulk admission reservation
// per shard, one encoding pass, and a single group-commit WAL join for
// every RECV record in the burst (plog.Log.LogReceivedBatchStart — one
// lock round-trip and one fsync wait instead of per-alert ones).
//
// The result is parallel to subs: errs[i] == nil is the hub's
// acknowledgement for subs[i], with exactly Submit's semantics — the
// alert is durably logged before the ack, OverloadError means the
// target shard rejected it before logging (retry after the hint), and
// other errors mean rejection. Entries for a full shard fail
// individually; the rest of the burst proceeds. Duplicate submissions
// (against the WAL or within the burst) are re-acked idempotently once
// the original is durable. The result is read-only, as for
// SubmitBatchAsync.
//
// SubmitBatch is the staging half of SubmitBatchAsync followed
// immediately by a wait for the resolver: the deferred enqueue runs on
// the same resolver, so the synchronous and pipelined paths cannot
// reorder each other's entries.
func (h *Hub) SubmitBatch(subs []Submission) []error {
	if len(subs) == 0 {
		return nil
	}
	t := ticketPool.Get().(*ticket)
	t.n = len(subs)
	t.resolved.Add(1)
	h.submit(t, subs)
	t.resolved.Wait()
	errs := t.errs
	h.recycle(t)
	return errs
}

// submit is the shared staging half of SubmitBatch/SubmitBatchAsync:
// stage the burst and hand its ticket to the resolver, which waits out
// commits in staging order and completes the ack + deferred enqueue. A
// burst that staged nothing — a closed hub's included, whose every
// entry is ErrNotAccepting — resolves synchronously here. An async
// ticket may be recycled the moment it is resolved or sent, so submit
// touches t after neither.
func (h *Hub) submit(t *ticket, subs []Submission) {
	if !h.accepting.Load() {
		for i := range subs {
			t.fail(i, ErrNotAccepting)
		}
		h.finishTicket(t)
		return
	}
	t.start = h.cfg.Clock.Now()
	scr := submitScratchPool.Get().(*submitScratch)
	staged := h.stage(t, subs, scr)
	scr.recycle() // before the send below, which may wait on the resolver
	if staged {
		h.ingestPending.Add(1)
		h.resolveq <- t
	}
}

// stage validates and dedups the burst, bulk-reserves admission,
// encodes the admitted alerts' journal records, and stages them into
// the WAL's group commit as one unit, leaving the commit and the staged
// entries in t. It reports false when nothing was staged, having
// resolved t itself.
func (h *Hub) stage(t *ticket, subs []Submission, scr *submitScratch) bool {
	now := t.start

	// Pass 1: validate, resolve tenants, and split duplicates from
	// fresh admissions. Burst-internal duplicates count as duplicates
	// too — exactly what sequential Submits of the same key would see.
	// The keys of the whole burst are built into one buffer and copied
	// into the free tail of the key arena's chunk as one string, the
	// burst's key slab; every later holder of a key (the envelope, the
	// journal's index) holds a substring of it, so keys cost one
	// allocation per chunk. A tail too small starts a fresh chunk; the
	// old one is collectable once the sweep has retired its last key.
	pending := scr.pending
	need := 0 // journal record bytes, should every valid entry be admitted
	for i := range subs {
		s := &subs[i]
		if err := s.Alert.Validate(); err != nil {
			h.ctr.rejectedInvalid.Add1()
			t.fail(i, err)
			continue
		}
		b, ok := h.buddy(s.User)
		if !ok {
			h.ctr.rejectedUnknownUser.Add1()
			t.fail(i, fmt.Errorf("hub: submit for %q: %w", s.User, ErrUnknownUser))
			continue
		}
		scr.keys = append(scr.keys, s.User...)
		scr.keys = append(scr.keys, keySep...)
		scr.keys = s.Alert.AppendDedupKey(scr.keys)
		need += s.Alert.RecordLen()
		pending = append(pending, submitPending{idx: i, buddy: b, a: s.Alert, keyEnd: len(scr.keys)})
	}
	scr.pending = pending
	if len(pending) == 0 {
		h.finishTicket(t)
		return false
	}
	if scr.arena.Cap()-scr.arena.Len() < len(scr.keys) {
		scr.arena.Reset()
		scr.arena.Grow(max(keyChunk, len(scr.keys)))
	}
	scr.arena.Write(scr.keys)
	slab := scr.arena.String()[scr.arena.Len()-len(scr.keys):]
	counts := append(scr.counts[:0], make([]int64, len(h.shards))...) // zeroed, per shard
	scr.counts = counts
	lo := 0
	for i := range pending {
		p := &pending[i]
		p.key = slab[lo:p.keyEnd]
		lo = p.keyEnd
		if _, inBurst := scr.seen[p.key]; inBurst || h.wal.Has(p.key) {
			p.dup = true
			continue
		}
		if len(pending) > 1 { // a burst of one has nothing to collide with
			scr.seen[p.key] = struct{}{}
		}
		p.sh = h.shardOf(subs[p.idx].User)
		counts[p.sh.id]++
	}

	// Pass 2: bulk admission BEFORE the pessimistic log — one CAS per
	// shard claims as many slots as the shard can grant; ungranted
	// entries fail with OverloadError exactly as a lone Submit would,
	// in burst order. A rejected alert was never logged or acked, so
	// the sender retries and nothing can be lost.
	granted := counts // reuse: granted[i] = slots shard i granted us
	for id := range counts {
		if counts[id] > 0 {
			granted[id] = h.shards[id].reserveN(counts[id])
		}
	}
	// Pass 3: encode the admitted entries into the journal entries the
	// WAL stages plus the parallel ticketEntry bookkeeping the resolver
	// needs (duplicates ride along as idempotent no-ops so their re-ack
	// waits for the original's durability). The records buffer is grown
	// once, here, so the records' payloads are its consecutive spans.
	recs := scr.recs
	records := slices.Grow(scr.records[:0], need)
	entries := slices.Grow(t.entries, len(pending))
	for _, p := range pending {
		if p.dup {
			recs = append(recs, plog.BatchEntry{Key: p.key, At: now})
			entries = append(entries, ticketEntry{idx: p.idx, dup: true, buddy: p.buddy})
			continue
		}
		if granted[p.sh.id] <= 0 {
			h.ctr.rejectsOverload.Add1()
			t.fail(p.idx, &OverloadError{
				User:       subs[p.idx].User,
				Shard:      p.sh.id,
				Depth:      h.cfg.queueDepth,
				RetryAfter: p.sh.retryHint(now, h.cfg.CommitWindow),
			})
			continue
		}
		granted[p.sh.id]--
		// Fill a pooled envelope and append its journal record to the
		// burst's records buffer; the group log copies the payload
		// synchronously while staging, so the buffer is reusable the
		// moment LogReceivedBatchStart returns.
		env := getEnvelope()
		env.fill(p.buddy, p.a, p.key, now)
		grown, err := env.alert.AppendRecord(records)
		if err != nil {
			putEnvelope(env)
			p.sh.release()
			h.ctr.rejectedInvalid.Add1()
			t.fail(p.idx, err)
			continue
		}
		recs = append(recs, plog.BatchEntry{Key: p.key, Payload: grown[len(records):], At: now})
		records = grown
		entries = append(entries, ticketEntry{idx: p.idx, buddy: p.buddy, sh: p.sh, env: env})
	}
	scr.recs, scr.records, t.entries = recs, records, entries
	if len(entries) == 0 {
		h.finishTicket(t)
		return false
	}

	// Pessimistic logging: the whole burst joins the WAL's open commit
	// batch as one unit (the join signals the committer). A staging
	// failure means nothing of the burst was staged: NACK all of it.
	c, err := h.wal.LogReceivedBatchStart(recs)
	if err != nil {
		if errors.Is(err, plog.ErrClosed) {
			// The WAL closes only in shutdown: this burst passed the
			// accepting check just before a Kill or Drain landed.
			err = ErrNotAccepting
		}
		h.nack(t, err)
		return false
	}
	t.c, t.staged = c, true
	return true
}

// nack fails every staged entry of a burst with err — admission slots
// released, envelopes abandoned to the collector (a failed batch may
// still reference them) — and resolves the ticket.
func (h *Hub) nack(t *ticket, err error) {
	for _, e := range t.entries {
		if !e.dup {
			e.sh.release()
		}
		t.fail(e.idx, err)
	}
	h.finishTicket(t)
}

// resolver is the hub's one commit-resolver goroutine: it processes
// staged tickets strictly in staging order — waiting out each one's
// group commit, acknowledging, and enqueueing the entries to their
// shards. FIFO order here is what lets deferred enqueues preserve
// per-user submission order: the journal's commits resolve in batch
// order, and two bursts sharing one commit batch are still enqueued in
// the order they staged. Once the WAL is closed, the resolver drains
// whatever is buffered (commits resolve instantly once the closed WAL
// flushed them) and exits; the hub counts as stopped only after that.
func (h *Hub) resolver() {
	defer close(h.resolverExited)
	for {
		select {
		case t := <-h.resolveq:
			h.resolve(t)
		case <-h.walClosed:
			for len(h.resolveq) > 0 { // the one receiver: this cannot block
				h.resolve(<-h.resolveq)
			}
			return
		}
	}
}

// resolve completes one staged burst once its group commit lands: bump
// the received/duplicate counters, stamp the ack time, and enqueue the
// fresh envelopes to their shards. A commit error NACKs every staged
// entry.
func (h *Hub) resolve(t *ticket) {
	if err := t.c.Wait(); err != nil {
		h.nack(t, err)
		return
	}
	if h.fault(faultAfterBatchFsync, -1, h.killed) {
		h.finishTicket(t)
		return
	}
	acked := h.cfg.Clock.Now() // post-fsync: latency measures ack → processed
	for _, e := range t.entries {
		if e.dup {
			h.ctr.duplicates.Add1()
			// The routing category (and with it any per-category tier
			// override) is unknown until the pipeline runs, so duplicate
			// suppression is attributed to the tenant's default tier.
			h.ctr.tierDuplicated[e.buddy.DefaultTier()].Add1()
			continue
		}
		h.ctr.received.Add1()
		e.env.at = acked // latency measures ack → processed
		e.sh.enqueue(e.env, false)
	}
	h.finishTicket(t)
}

// finishTicket resolves a ticket: observe the admission latency (for
// staged bursts) and hand the results over — to SubmitBatch's wait,
// which then owns the ticket, or to the callback, after which the
// ticket is recycled. It reads the callback before releasing the wait.
func (h *Hub) finishTicket(t *ticket) {
	if t.staged {
		h.admitLat.Observe(h.cfg.Clock.Since(t.start))
		h.ingestPending.Add(-1)
	}
	if t.errs == nil {
		t.errs = h.noErrors(t.n)
	}
	cb := t.onCommitted
	if cb == nil {
		t.resolved.Done()
		return
	}
	cb(t.errs)
	h.recycle(t)
}
