// Package outbox implements the durable retry outbox behind SIMBA's
// guaranteed delivery tier. The hub's delivery stage retries failed
// deliveries in memory with a bounded attempt budget; historically an
// exhausted budget — or a crash mid-backoff — lost the alert
// permanently, which contradicts the paper's headline claim of
// dependable delivery. The outbox closes that gap for guaranteed-tier
// subscriptions:
//
//   - When the in-memory budget is exhausted, the delivery envelope
//     (alert + tenant + routing category + attempt state + next-due
//     time) is journaled as a record of its own kind in the hub's WAL
//     (Handoff): one plog.Log.ReplaceAsync stages the envelope's RECV and
//     the alert's DONE in one batch, riding the journal's next commit, so
//     every cut of the journal leaves a record owning the alert.
//   - A background redelivery loop, driven by the (possibly virtual)
//     clock, re-executes due envelopes through a caller-supplied
//     delivery function with exponential per-round backoff. Every
//     failed round re-persists the envelope under a round-stamped key
//     and tombstones the previous round in the same batch (ReplaceAsync
//     again), so the round/escalation state itself survives restarts.
//   - After EscalateEvery exhausted rounds, the envelope's block
//     offset advances: redelivery skips the delivery mode's leading
//     (known-bad) blocks and starts at the next backup channel — the
//     paper's block fallback generalized across process restarts.
//   - On restart, Load schedules the pending envelopes among the
//     journal's unprocessed records (stale rounds of the same alert
//     collapse onto the newest). Redelivered duplicates are covered by
//     the alert-timestamp dedup contract: at-least-once-with-dedup.
//
// New builds an outbox over a journal its caller owns — the hub's WAL,
// whose checkpoints compact envelopes with everything else. Open gives
// the outbox a private journal of its own, for standalone use.
package outbox

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/metrics"
	"simba/internal/plog"
)

// Defaults.
const (
	// DefaultBackoff is the base redelivery backoff: round n fires
	// roughly Backoff·2ⁿ after the previous failure, capped.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultBackoffCap caps the exponential round backoff.
	DefaultBackoffCap = 30 * time.Second
	// DefaultEscalateEvery is how many exhausted rounds an envelope
	// spends per delivery-mode block before escalating to the next one.
	DefaultEscalateEvery = 3
)

// ErrDrop, wrapped into a DeliverFunc error, tells the outbox the
// envelope can never be delivered (e.g. the tenant is no longer
// hosted) and should be retired and counted as lost instead of
// retried.
var ErrDrop = errors.New("outbox: undeliverable envelope")

// DeliverFunc executes one redelivery round for an envelope. dedup is
// the alert's journal key, user␟dedupKey, which the envelope's key
// extends. blocks reports how many delivery-mode blocks the resolved
// plan has (the escalation ceiling; 0 when the plan could not be
// resolved). The callback may clamp e.Offset to the plan's last block;
// the clamped value is what the outbox re-persists. Returning an error
// that wraps ErrDrop retires the envelope as lost.
type DeliverFunc func(dedup string, e *Entry) (blocks int, err error)

// Options parameterize an Outbox.
type Options struct {
	// Clock drives the redelivery loop; required.
	Clock clock.Clock
	// Path is the base path of the journal Open opens; New ignores it.
	Path string
	// Backoff is the base per-round redelivery backoff; zero means
	// DefaultBackoff.
	Backoff time.Duration
	// BackoffCap caps the exponential round backoff; zero means
	// DefaultBackoffCap.
	BackoffCap time.Duration
	// EscalateEvery is how many exhausted rounds an envelope spends per
	// block offset before escalating to the next block; zero means
	// DefaultEscalateEvery, negative disables escalation.
	EscalateEvery int
	// Journal records replay/recovery actions. Optional.
	Journal *faults.Journal
}

// Stats is a point-in-time snapshot of the outbox.
type Stats struct {
	// Pending is the number of envelopes awaiting redelivery.
	Pending int
	// OldestDue is the earliest scheduled redelivery time (zero when
	// nothing is pending). An OldestDue far in the past means the
	// redelivery loop has stopped draining.
	OldestDue time.Time
	// Loaded counts envelopes recovered from the journal at Open (after
	// collapsing stale rounds).
	Loaded int64
	// Puts counts envelopes handed to the outbox since Open.
	Puts int64
	// Redelivered counts redelivery rounds that landed.
	Redelivered int64
	// Rounds counts exhausted (failed) redelivery rounds, each once its
	// re-persisted round is staged (no longer once it is durable).
	Rounds int64
	// Escalated counts block-offset advances (channel escalations).
	Escalated int64
	// Dropped counts envelopes retired as undeliverable (ErrDrop).
	Dropped int64
	// RoundsToSuccess is the distribution of outbox rounds a delivered
	// envelope needed (power-of-two buckets).
	RoundsToSuccess metrics.HistogramSnapshot
	// Log is the private journal's snapshot (Open); zero for an outbox
	// over a journal it does not own (New), whose owner reports it.
	Log plog.Stats
}

// item is one scheduled envelope: the entry plus its current persisted
// key and the escalation ceiling learned from the delivery callback.
type item struct {
	e *Entry
	// dedup is the alert's journal key (user␟dedupKey); key, the
	// round-stamped one the entry is currently persisted under, extends
	// it.
	dedup, key string
	// maxOffset is the highest meaningful block offset (blocks-1), -1
	// until the first delivery attempt reports the plan size.
	maxOffset int
}

// entryHeap orders items by due time (earliest first).
type entryHeap []*item

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].e.Due.Before(h[j].e.Due) }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(*item)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Outbox is a WAL-backed persistent retry queue with a clock-driven
// redelivery loop. It is safe for concurrent use; redeliveries
// themselves run sequentially on the loop goroutine (outbox traffic is
// the failure tail, not the hot path), which starts with the first
// pending envelope: an outbox that never holds one runs no goroutine.
type Outbox struct {
	opts Options
	log  *plog.Log
	// ownsLog is set when Open made the journal: only then do Close and
	// Kill close it.
	ownsLog bool

	mu      sync.Mutex
	pending entryHeap
	// inRound is set while the loop holds a popped envelope for the
	// round in progress: it is owed a mark (retire or reschedule) and
	// still counts as pending.
	inRound bool
	started bool
	running bool // the loop goroutine was launched
	closed  bool

	deliver  DeliverFunc
	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	loaded, puts, redelivered, rounds, escalated, dropped atomic.Int64
	roundsToSuccess                                       *metrics.Histogram
}

// New builds an outbox over journal l, which the caller owns: the
// outbox stages its records there and never closes it. opts.Clock is
// required. Nothing is scheduled until Load hands it the journal's
// pending envelopes, and the redelivery loop does not run until Start.
func New(l *plog.Log, opts Options) *Outbox {
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.BackoffCap <= 0 {
		opts.BackoffCap = DefaultBackoffCap
	}
	if opts.BackoffCap < opts.Backoff {
		opts.BackoffCap = opts.Backoff
	}
	if opts.EscalateEvery == 0 {
		opts.EscalateEvery = DefaultEscalateEvery
	}
	return &Outbox{
		opts:            opts,
		log:             l,
		wake:            make(chan struct{}, 1),
		stop:            make(chan struct{}),
		done:            make(chan struct{}),
		roundsToSuccess: &metrics.Histogram{},
	}
}

// Open opens (creating if needed) a private journal at opts.Path and
// loads every pending envelope from it; every record that is not an
// envelope is tombstoned. Close and Kill close the journal.
func Open(opts Options) (*Outbox, error) {
	if opts.Clock == nil || opts.Path == "" {
		return nil, errors.New("outbox: Options require Clock and Path")
	}
	l, err := plog.OpenGroup(opts.Path, plog.GroupOptions{})
	if err != nil {
		return nil, fmt.Errorf("outbox: opening journal: %w", err)
	}
	o := New(l, opts)
	o.ownsLog = true
	o.Load(l.Unprocessed())
	return o, nil
}

// IsEnvelope reports whether a journal payload is an outbox envelope,
// not some other record sharing the journal.
func IsEnvelope(payload []byte) bool { return len(payload) > 0 && payload[0] == envelopeTag }

// Load schedules the envelopes among recs, a journal's unprocessed
// records in log order. A crash inside ReplaceAsync can leave two rounds of
// the same alert unprocessed (the torn tail drops the DONE, never the
// fresh RECV); the highest round wins and the stale ones are
// tombstoned, as are envelopes that do not parse. Records of other
// kinds are left to the journal's owner — or tombstoned, when the
// journal is the outbox's own. Load returns the keys of the alerts the
// scheduled envelopes redeliver (user␟dedupKey): an unprocessed record
// under one of them is the handoff batch's torn-off source, which the
// envelope supersedes.
func (o *Outbox) Load(recs []plog.Record) (owned map[string]struct{}) {
	newest := make(map[string]*item)
	now := o.opts.Clock.Now()
	retire := func(key, why string) {
		o.journal(faults.KindReplay, "outbox: tombstoning %s record %q", why, key)
		_ = o.log.MarkProcessedAsync(key, now) // lost in a crash, it is redone at the next Load
	}
	for _, rec := range recs {
		if !IsEnvelope(rec.Payload) {
			if o.ownsLog {
				retire(rec.Key, "unparsable")
			}
			continue
		}
		dedup, round, err := splitKey(rec.Key)
		if err != nil {
			retire(rec.Key, "malformed-key")
			continue
		}
		e, err := decodeEntry(dedup, round, rec.Payload)
		if err != nil {
			retire(rec.Key, "unparsable")
			continue
		}
		prev, ok := newest[dedup]
		switch {
		case !ok:
			newest[dedup] = &item{e: e, dedup: dedup, key: rec.Key, maxOffset: -1}
		case prev.e.Round < round:
			retire(prev.key, "superseded")
			newest[dedup] = &item{e: e, dedup: dedup, key: rec.Key, maxOffset: -1}
		default:
			retire(rec.Key, "superseded")
		}
	}
	owned = make(map[string]struct{}, len(newest))
	o.mu.Lock()
	defer o.mu.Unlock()
	for dedup, it := range newest {
		o.journal(faults.KindReplay, "outbox: replaying pending envelope %s (round %d, offset %d)",
			it.key, it.e.Round, it.e.Offset)
		heap.Push(&o.pending, it)
		o.loaded.Add(1)
		owned[dedup] = struct{}{}
	}
	o.kickLocked()
	return owned
}

// Start enables the redelivery loop. deliver executes one round per
// due envelope; see DeliverFunc.
func (o *Outbox) Start(deliver DeliverFunc) error {
	if deliver == nil {
		return errors.New("outbox: Start requires a DeliverFunc")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return plog.ErrClosed
	}
	if o.started {
		return errors.New("outbox: already started")
	}
	o.started = true
	o.deliver = deliver
	o.kickLocked()
	return nil
}

// Put durably hands one envelope to the outbox: no older record owns the
// alert, so Handoff with no record to retire is followed by a Flush.
func (o *Outbox) Put(e Entry) error {
	if err := o.Handoff("", e); err != nil {
		return err
	}
	return o.log.Flush()
}

// Handoff hands one envelope to the outbox and retires the journal
// record fromKey (the alert's own, user␟dedupKey, which the envelope's
// key extends; "" for none) in the same batch — one ReplaceAsync. A nil
// return no longer means the envelope is durable: it is staged and on
// the heap, and until the batch rides the journal's next commit, a crash
// replays fromKey instead. A zero Due schedules the first round one
// backoff from now. Re-handing an alert already pending at the same
// round is idempotent: the scheduled copy owns it. Staging never waits
// on the disk, so the outbox lock is never held across an fsync.
func (o *Outbox) Handoff(fromKey string, e Entry) error {
	if err := e.validate(); err != nil {
		return err
	}
	if e.Due.IsZero() {
		e.Due = o.opts.Clock.Now().Add(o.backoffFor(e.Round))
	}
	payload, err := e.encode()
	if err != nil {
		return err
	}
	dedup := fromKey
	if dedup == "" {
		dedup = e.dedupKey()
	}
	key := roundKey(dedup, e.Round)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return plog.ErrClosed
	}
	dup := o.log.Has(key) && !o.log.IsProcessed(key)
	// A duplicate's RECV stages as a no-op; fromKey is retired all the same.
	if err := o.log.ReplaceAsync(fromKey, key, payload, o.opts.Clock.Now()); err != nil || dup {
		return err
	}
	heap.Push(&o.pending, &item{e: &e, dedup: dedup, key: key, maxOffset: -1})
	o.puts.Add(1)
	o.kickLocked()
	return nil
}

// Pending reports how many envelopes await redelivery, the one whose
// round is in progress included.
func (o *Outbox) Pending() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.inRound {
		return len(o.pending) + 1
	}
	return len(o.pending)
}

// OldestDue returns the earliest scheduled redelivery time, false when
// nothing is pending. A due time far in the past is the signal a
// resource invariant watches for: the redelivery loop has stopped
// draining its heap.
func (o *Outbox) OldestDue() (time.Time, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.pending) == 0 {
		return time.Time{}, false
	}
	return o.pending[0].e.Due, true
}

// Stats snapshots the outbox counters and, for a private journal, its
// state.
func (o *Outbox) Stats() Stats {
	oldest, _ := o.OldestDue()
	s := Stats{
		Pending:         o.Pending(),
		OldestDue:       oldest,
		Loaded:          o.loaded.Load(),
		Puts:            o.puts.Load(),
		Redelivered:     o.redelivered.Load(),
		Rounds:          o.rounds.Load(),
		Escalated:       o.escalated.Load(),
		Dropped:         o.dropped.Load(),
		RoundsToSuccess: o.roundsToSuccess.Snapshot(),
	}
	if o.ownsLog {
		s.Log = o.log.Stats()
	}
	return s
}

// Redelivered returns how many redelivery rounds landed.
func (o *Outbox) Redelivered() int64 { return o.redelivered.Load() }

// Escalated returns how many channel escalations occurred.
func (o *Outbox) Escalated() int64 { return o.escalated.Load() }

// Close gracefully shuts the outbox down: the loop finishes the round
// in flight (if any) and journals its outcome — marks are refused only
// after the loop has exited, so a delivery that lands during Close is
// not redelivered by the next incarnation — pending envelopes stay
// durable, and a private journal is flushed and closed. A loop a
// racing handoff launches after stop is closed exits at once.
func (o *Outbox) Close() error {
	o.stopOnce.Do(func() { close(o.stop) })
	o.mu.Lock()
	running := o.running
	o.mu.Unlock()
	if running {
		<-o.done
	}
	o.mu.Lock()
	closed := o.closed
	o.closed = true
	o.mu.Unlock()
	if closed || !o.ownsLog {
		return nil
	}
	return o.log.Close()
}

// Kill abruptly terminates the outbox, simulating a crash: marks stop
// at once, a private journal closes immediately, and the loop is not
// waited for (a round in flight fails to complete its mark and the
// envelope replays on reopen — the dedup contract's documented
// duplicate).
func (o *Outbox) Kill() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.mu.Lock()
	closed := o.closed
	o.closed = true
	o.mu.Unlock()
	if !closed && o.ownsLog {
		_ = o.log.Close()
	}
}

// kickLocked nudges the loop to re-examine the heap, launching it on
// the first pending envelope once started. Caller holds mu.
func (o *Outbox) kickLocked() {
	switch {
	case !o.started || len(o.pending) == 0:
	case o.running:
		select {
		case o.wake <- struct{}{}:
		default:
		}
	default:
		o.running = true
		go o.loop()
	}
}

// backoffFor returns the wait before round (0-based): Backoff·2ʳ,
// capped. Deterministic — outbox rounds are sparse enough that jitter
// buys nothing and reproducibility under the virtual clock buys tests.
func (o *Outbox) backoffFor(round int) time.Duration {
	d := o.opts.Backoff
	for i := 0; i < round && d < o.opts.BackoffCap; i++ {
		d *= 2
	}
	if d > o.opts.BackoffCap {
		d = o.opts.BackoffCap
	}
	return d
}

// loop is the redelivery scheduler: sleep until the earliest due
// envelope (or a wake from a handoff) on its one timer, then run every
// due round.
func (o *Outbox) loop() {
	defer close(o.done)
	var timer clock.Timer
	for {
		o.runDue()
		o.mu.Lock()
		var timerC <-chan time.Time
		if len(o.pending) > 0 {
			d := max(o.pending[0].e.Due.Sub(o.opts.Clock.Now()), 0)
			if timer == nil {
				timer = o.opts.Clock.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			timerC = timer.C()
		}
		o.mu.Unlock()
		select {
		case <-o.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-o.wake:
			// Stop and drain, so the next Reset starts from a quiet channel.
			if timerC != nil && !timer.Stop() {
				select {
				case <-timerC:
				default:
				}
			}
		case <-timerC:
		}
	}
}

// runDue executes one redelivery round for every envelope whose due
// time has passed.
func (o *Outbox) runDue() {
	for {
		select {
		case <-o.stop:
			return
		default:
		}
		o.mu.Lock()
		if o.closed || len(o.pending) == 0 || o.pending[0].e.Due.After(o.opts.Clock.Now()) {
			o.mu.Unlock()
			return
		}
		it := heap.Pop(&o.pending).(*item)
		o.inRound = true
		o.mu.Unlock()

		blocks, err := o.deliver(it.dedup, it.e)
		if blocks > 0 {
			it.maxOffset = blocks - 1
		}
		switch {
		case err == nil:
			o.retire(it)
			o.redelivered.Add(1)
			o.roundsToSuccess.Observe(int64(it.e.Round))
		case errors.Is(err, ErrDrop):
			o.journal(faults.KindOutbox, "outbox: dropping undeliverable envelope %s: %v", it.key, err)
			o.retire(it)
			o.dropped.Add(1)
		default:
			o.reschedule(it)
		}
	}
}

// retire stages the envelope's processed mark without buying it an
// fsync: the mark rides the journal's next waited-for commit, or its
// lazy-DONE deadline. A crash before then replays the envelope — one
// more redelivery, the dedup contract's case, as is ErrClosed when a
// kill raced the mark.
func (o *Outbox) retire(it *item) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inRound = false
	if o.closed {
		return
	}
	if err := o.log.MarkProcessedAsync(it.key, o.opts.Clock.Now()); err != nil && !errors.Is(err, plog.ErrClosed) {
		o.journal(faults.KindOutbox, "outbox: marking %s processed: %v", it.key, err)
	}
}

// reschedule advances a failed envelope's round (escalating the block
// offset every EscalateEvery rounds while backup blocks remain), stages
// it under the round-stamped key with the previous round tombstoned in
// the same batch, counts the round and pushes it back on the heap. The
// round rides the journal's next commit: a crash before then redelivers
// from the previous round.
func (o *Outbox) reschedule(it *item) {
	e := it.e
	e.Round++
	if k := o.opts.EscalateEvery; k > 0 && e.Round%k == 0 && it.maxOffset >= 0 && e.Offset < it.maxOffset {
		e.Offset++
		o.escalated.Add(1)
		o.journal(faults.KindOutbox, "outbox: escalating %s to block offset %d after %d rounds",
			it.dedup, e.Offset, e.Round)
	}
	e.Due = o.opts.Clock.Now().Add(o.backoffFor(e.Round))
	newKey := roundKey(it.dedup, e.Round)
	payload, err := e.encode()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inRound = false
	if err == nil {
		err = o.log.ReplaceAsync(it.key, newKey, payload, o.opts.Clock.Now())
	}
	switch {
	case err == nil:
		it.key = newKey
		o.rounds.Add(1)
	case !errors.Is(err, plog.ErrClosed):
		// Keep redelivering from memory; the journal still holds the
		// previous round, so nothing is lost across a restart.
		o.journal(faults.KindOutbox, "outbox: persisting %s round %d: %v", it.dedup, e.Round, err)
	}
	// Pushed back even when closed: it stays pending, and the journaled
	// round replays next incarnation.
	heap.Push(&o.pending, it)
}

func (o *Outbox) journal(kind faults.Kind, format string, args ...any) {
	if o.opts.Journal != nil {
		o.opts.Journal.Recordf(o.opts.Clock.Now(), kind, format, args...)
	}
}
