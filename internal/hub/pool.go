package hub

import (
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/alert"
)

// envelope is one admitted alert riding the hub, pooled and recycled.
// An envelope is born in SubmitBatch (or replay), joins its user's
// chain in the shard's delivery stage, and is routed and then finished
// (reject/filter verdict) or delivered by the worker that owns the
// chain — the routed category and the per-user FIFO link live inline,
// so nothing builds a separate job value.
//
// Lifecycle/recycling contract: an envelope returns to the pool only
// in finish, after its WAL DONE record has been staged and its
// admission slot released — the one point where no other component can
// still reach it. Abandoned envelopes (kill, crash injection, failed
// outbox handoff that leaves the WAL entry live) are NOT recycled; the
// pool is best-effort and the GC reclaims them. The alert value and its
// keyword backing are envelope-owned storage, reused across recycles so
// the steady-state ingest path allocates nothing per alert; the wire
// form is the chain's (userQueue.wire).
type envelope struct {
	buddy *Buddy
	// alert is inline storage for the submitted alert. Its Keywords
	// alias the envelope's kwbuf (after fill) or kw (after routing) —
	// never the submitter's slice.
	alert alert.Alert
	key   string
	at    time.Time // admission time, for end-to-end latency

	// category is the routing category, valid once the envelope is
	// routed; it selects the tenant's subscribed delivery mode.
	category string

	// Envelope-owned reusable storage.
	kwbuf []string // backing for alert.Keywords (submitter copy): kw until a second keyword grows it
	// kw backs the routed-category annotation, and until routing ends
	// a one-keyword alert's kwbuf, so a fresh envelope allocates nothing
	// beyond its slab.
	kw [1]string

	// next links the envelope into its user's delivery FIFO chain (and
	// into nothing otherwise). Owned by the delivery stage's lock.
	next *envelope

	// poisoned records that poison() ran at recycle, so the next
	// getEnvelope knows to verify the marks survived the pool stay.
	poisoned bool
}

// envPool recycles envelopes across the whole process; sync.Pool's
// per-P caches keep Get/Put off any shared lock on the hot path.
var envPool sync.Pool

// envSlab is how many envelopes an empty pool is refilled with by one
// allocation: after a collection or a kill empties it, a replay or a
// burst pays one allocation per slab, not one per envelope. A slab is
// freed once none of its envelopes is reachable.
const envSlab = 16

// poolPoison, when set, scribbles on every recycled envelope so any
// use-after-recycle reads obvious garbage instead of stale-but-valid
// data, and checks what is handed back to a pool: the shared no-error
// result, and a chain node, which must have no wait open. Tests set it
// to turn silent pooling bugs into loud ones; it burns cycles on every
// recycle.
var poolPoison atomic.Bool

// poisonSentinel marks every string field of a poisoned envelope.
const poisonSentinel = "POISONED-RECYCLED-ENVELOPE"

// poolPoisonHits counts what poisoning caught: recycled envelopes whose
// poison marks were disturbed between putEnvelope and the next
// getEnvelope — hard evidence of a use-after-recycle writer — and the
// bad recycles the checks above found. Feeds the hub's pool-poison
// stabilize invariant; only advances while poisoning is on.
var poolPoisonHits atomic.Int64

// getEnvelope takes a (possibly recycled) envelope from the pool. The
// caller must fill every semantic field; the env-owned buffers keep
// their capacity.
func getEnvelope() *envelope {
	e, _ := envPool.Get().(*envelope)
	if e == nil {
		slab := new([envSlab]envelope)
		for i := 1; i < envSlab; i++ {
			envPool.Put(&slab[i])
		}
		e = &slab[0]
	}
	if e.poisoned && !e.poisonIntact() {
		// The envelope was poisoned at recycle but a stale reference
		// wrote to it while pooled. Count it and discard the envelope —
		// its buffers are suspect.
		poolPoisonHits.Add(1)
		e = new(envelope)
	}
	e.poisoned = false
	e.next = nil
	return e
}

// poisonIntact reports whether a previously-poisoned envelope's marks
// survived its stay in the pool. Fresh envelopes (key == "") are never
// checked.
func (e *envelope) poisonIntact() bool {
	return e.key == poisonSentinel &&
		e.category == poisonSentinel &&
		e.kw[0] == poisonSentinel &&
		e.alert.ID == poisonSentinel
}

// fill initializes a pooled envelope for one admitted alert, copying
// the alert by value and its keywords into envelope-owned backing so no
// submitter-owned memory is aliased after SubmitBatch returns.
func (e *envelope) fill(b *Buddy, a *alert.Alert, key string, at time.Time) {
	e.buddy = b
	e.alert = *a
	if e.kwbuf == nil {
		e.kwbuf = e.kw[:0]
	}
	e.kwbuf = append(e.kwbuf[:0], a.Keywords...)
	e.alert.Keywords = e.kwbuf
	e.key = key
	e.at = at
	e.category = ""
	e.next = nil
}

// putEnvelope recycles an envelope. Only call once the envelope's DONE
// record is staged and nothing can reach it anymore.
func putEnvelope(e *envelope) {
	if poolPoison.Load() {
		e.poison()
		e.poisoned = true
	} else {
		// A pooled envelope must not pin its burst's key slab, which a
		// replayed alert's Source and ID are substrings of.
		e.key, e.alert.Source, e.alert.ID = "", "", ""
	}
	e.buddy = nil
	e.next = nil
	envPool.Put(e)
}

// poison scribbles recognizable garbage over every field a stale reader
// could consume, while preserving the reusable buffers' capacity.
func (e *envelope) poison() {
	for i := range e.kwbuf {
		e.kwbuf[i] = poisonSentinel
	}
	e.alert = alert.Alert{
		ID:      poisonSentinel,
		Source:  poisonSentinel,
		Subject: poisonSentinel,
		Body:    poisonSentinel,
		Urgency: -1,
		Created: time.Unix(-1<<40, 0),
	}
	e.key = poisonSentinel
	e.category = poisonSentinel
	e.kw[0] = poisonSentinel
	e.at = time.Unix(-1<<40, 0)
}
