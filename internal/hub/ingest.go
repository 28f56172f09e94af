package hub

import (
	"errors"
	"fmt"
	"slices"
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

// submitScratch is everything stage builds that does not outlive the
// call: the key buffer the burst's key slab is made from, the dedup
// set, the pending entries, the per-shard admission counts, and the
// journal entries handed to the WAL with the buffer their alert records
// are encoded into (the WAL copies what it keeps while staging). Pooled,
// so a burst allocates only its key slab and what its Ticket owns.
type submitScratch struct {
	keys    []byte
	seen    map[string]struct{}
	pending []submitPending
	counts  []int64
	recs    []plog.BatchEntry
	records []byte
}

var submitScratchPool = sync.Pool{New: func() any {
	return &submitScratch{seen: make(map[string]struct{})}
}}

// countsFor returns the zeroed per-shard count table.
func (s *submitScratch) countsFor(shards int) []int64 {
	if cap(s.counts) < shards {
		s.counts = make([]int64, shards)
	}
	s.counts = s.counts[:shards]
	clear(s.counts)
	return s.counts
}

// recycle returns the scratch to the pool holding capacity only: the
// entries' pointers into the caller's burst, the tenants, the envelope
// payloads and the key slab are all dropped.
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

// Ticket is a pending acknowledgement from SubmitBatchAsync (and,
// internally, SubmitBatch): the burst's RECV records are staged into
// the WAL's group commit, and the ticket resolves once that commit's
// fsync lands and the admitted entries are enqueued to their shards.
// Until then nothing is acknowledged and nothing is routed — the
// admission→log→ack→enqueue order of a synchronous submit is preserved;
// the submitter has merely stopped standing in it.
type Ticket struct {
	errs        []error
	done        chan struct{}
	onCommitted func([]error)
	start       time.Time
	// c is the burst's one group commit and entries the burst entries
	// (fresh envelopes and duplicate re-acks) whose fate it decides;
	// both are set only once the burst is staged and handed to the
	// resolver, so entries != nil says "staged".
	c       plog.Commit
	entries []ticketEntry
}

// ticketEntry is one staged burst entry inside a Ticket.
type ticketEntry struct {
	idx   int
	dup   bool
	buddy *Buddy
	sh    *shard    // nil for duplicates
	env   *envelope // nil for duplicates
}

// Done is closed when the ticket has resolved (every entry acked or
// failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the ticket resolves and returns the per-entry
// results, parallel to the submitted burst with exactly SubmitBatch's
// semantics: errs[i] == nil is the hub's durable acknowledgement for
// entry i. The slice is shared with the onCommitted callback; treat it
// as read-only.
func (t *Ticket) Wait() []error {
	<-t.done
	return t.errs
}

// SubmitBatchAsync is the pipelined ingest path: it validates, admits,
// and stages the burst's RECV records exactly as SubmitBatch does, but
// returns a commit Ticket instead of blocking on the WAL fsync. The
// burst is acknowledged — and only then enqueued for routing — when
// the ticket resolves; onCommitted (optional) runs once at that point
// with the per-entry results, on the resolver goroutine, so it must not
// block. A submitter keeps several batches in flight by holding
// several tickets; the resolver's inbox bounds the hub-wide total at
// defaultAsyncInFlight staged tickets, and a submitter past the bound
// blocks here after staging, until the resolver takes a ticket.
//
// Entries that fail before staging (invalid alert, unknown user,
// overloaded shard) are reported in the ticket's results exactly as
// SubmitBatch reports them. A commit whose write or fsync fails NACKs
// every entry the burst staged.
func (h *Hub) SubmitBatchAsync(subs []Submission, onCommitted func(errs []error)) *Ticket {
	return h.submit(subs, onCommitted)
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
// the original is durable.
//
// SubmitBatch is the staging half of SubmitBatchAsync followed
// immediately by Wait: the deferred enqueue runs on the same resolver,
// so the synchronous and pipelined paths cannot reorder each other's
// entries.
func (h *Hub) SubmitBatch(subs []Submission) []error {
	if len(subs) == 0 {
		return nil
	}
	return h.submit(subs, nil).Wait()
}

// submit is the shared staging half of SubmitBatch/SubmitBatchAsync:
// stage the burst and hand its Ticket to the resolver, which waits out
// commits in staging order and completes the ack + deferred enqueue. A
// burst that staged nothing — a closed hub's included, whose every
// entry is ErrNotAccepting — resolves synchronously here.
func (h *Hub) submit(subs []Submission, onCommitted func([]error)) *Ticket {
	errs := make([]error, len(subs))
	t := &Ticket{errs: errs, done: make(chan struct{}), onCommitted: onCommitted}
	if !h.accepting.Load() {
		for i := range errs {
			errs[i] = ErrNotAccepting
		}
		h.finishTicket(t)
		return t
	}
	t.start = h.cfg.Clock.Now()
	scr := submitScratchPool.Get().(*submitScratch)
	staged := h.stage(t, subs, scr)
	scr.recycle() // before the send below, which may wait on the resolver
	if staged {
		h.ingestPending.Add(1)
		h.resolveq <- t
	}
	return t
}

// stage validates and dedups the burst, bulk-reserves admission,
// encodes the admitted alerts' journal records, and stages them into
// the WAL's group commit as one unit, leaving the commit and the staged
// entries in t. It reports false when nothing was staged, having
// resolved t itself.
func (h *Hub) stage(t *Ticket, subs []Submission, scr *submitScratch) bool {
	errs, now := t.errs, t.start

	// Pass 1: validate, resolve tenants, and split duplicates from
	// fresh admissions. Burst-internal duplicates count as duplicates
	// too — exactly what sequential Submits of the same key would see.
	// The keys of the whole burst are built into one buffer and become
	// one string, the burst's key slab; every later holder of a key (the
	// envelope, the journal's index) holds a substring of it, so keys
	// cost one allocation per burst. The slab is collectable when the
	// journal's sweep has retired the last of its keys.
	pending := scr.pending
	need := 0 // journal record bytes, should every valid entry be admitted
	for i := range subs {
		s := &subs[i]
		if err := s.Alert.Validate(); err != nil {
			h.ctr.rejectedInvalid.Add1()
			errs[i] = err
			continue
		}
		b, ok := h.buddy(s.User)
		if !ok {
			h.ctr.rejectedUnknownUser.Add1()
			errs[i] = fmt.Errorf("hub: submit for %q: %w", s.User, ErrUnknownUser)
			continue
		}
		scr.keys = append(scr.keys, s.User...)
		scr.keys = append(scr.keys, keySep...)
		scr.keys = s.Alert.AppendDedupKey(scr.keys)
		need += s.Alert.BinaryLen()
		pending = append(pending, submitPending{idx: i, buddy: b, a: s.Alert, keyEnd: len(scr.keys)})
	}
	scr.pending = pending
	if len(pending) == 0 {
		h.finishTicket(t)
		return false
	}
	slab := string(scr.keys)
	counts := scr.countsFor(len(h.shards))
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
	entries := make([]ticketEntry, 0, len(pending))
	for _, p := range pending {
		if p.dup {
			recs = append(recs, plog.BatchEntry{Key: p.key, At: now})
			entries = append(entries, ticketEntry{idx: p.idx, dup: true, buddy: p.buddy})
			continue
		}
		if granted[p.sh.id] <= 0 {
			h.ctr.rejectsOverload.Add1()
			errs[p.idx] = &OverloadError{
				User:       subs[p.idx].User,
				Shard:      p.sh.id,
				Depth:      h.cfg.queueDepth,
				RetryAfter: p.sh.retryHint(now, h.cfg.CommitWindow),
			}
			continue
		}
		granted[p.sh.id]--
		// Fill a pooled envelope and append its journal record to the
		// burst's records buffer; the group log copies the payload
		// synchronously while staging, so the buffer is reusable the
		// moment LogReceivedBatchStart returns.
		env := getEnvelope()
		env.fill(p.buddy, p.a, p.key, now)
		grown, err := env.alert.AppendBinary(records)
		if err != nil {
			putEnvelope(env)
			p.sh.release()
			h.ctr.rejectedInvalid.Add1()
			errs[p.idx] = err
			continue
		}
		recs = append(recs, plog.BatchEntry{Key: p.key, Payload: grown[len(records):], At: now})
		records = grown
		entries = append(entries, ticketEntry{idx: p.idx, buddy: p.buddy, sh: p.sh, env: env})
	}
	scr.recs, scr.records = recs, records
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
		h.nack(t, entries, err)
		return false
	}
	t.c, t.entries = c, entries
	return true
}

// nack fails every staged entry of a burst with err — admission slots
// released, envelopes abandoned to the collector (a failed batch may
// still reference them) — and resolves the ticket.
func (h *Hub) nack(t *Ticket, entries []ticketEntry, err error) {
	for i := range entries {
		e := &entries[i]
		if !e.dup {
			e.sh.release()
		}
		t.errs[e.idx] = err
	}
	h.finishTicket(t)
}

// resolver is the hub's one commit-resolver goroutine: it processes
// staged tickets strictly in staging order — waiting out each one's
// group commit, acknowledging, and enqueueing the entries to their
// shards. FIFO order here is what lets deferred enqueues preserve
// per-user submission order: the journal's commits resolve in batch
// order, and two bursts sharing one commit batch are still enqueued in
// the order they staged. After the hub stops, the resolver drains
// whatever is buffered (commits resolve instantly once the closed WAL
// flushed them) and exits.
func (h *Hub) resolver() {
	for {
		select {
		case t := <-h.resolveq:
			h.resolve(t)
		case <-h.stopped:
			for {
				select {
				case t := <-h.resolveq:
					h.resolve(t)
				default:
					return
				}
			}
		}
	}
}

// resolve completes one staged burst once its group commit lands: bump
// the received/duplicate counters, stamp the ack time, and enqueue the
// fresh envelopes to their shards. A commit error NACKs every staged
// entry.
func (h *Hub) resolve(t *Ticket) {
	if err := t.c.Wait(); err != nil {
		h.nack(t, t.entries, err)
		return
	}
	if h.fault(faultAfterBatchFsync, -1, h.killed) {
		h.finishTicket(t)
		return
	}
	acked := h.cfg.Clock.Now() // post-fsync: latency measures ack → processed
	for i := range t.entries {
		e := &t.entries[i]
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
// bursts that actually staged durability work), wake waiters, and run
// the commit callback.
func (h *Hub) finishTicket(t *Ticket) {
	if t.entries != nil {
		h.admitLat.Observe(h.cfg.Clock.Since(t.start))
		h.ingestPending.Add(-1)
	}
	close(t.done)
	if t.onCommitted != nil {
		t.onCommitted(t.errs)
	}
}
