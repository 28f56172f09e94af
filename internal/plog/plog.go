// Package plog implements the pessimistic logging MyAlertBuddy uses to
// avoid losing alerts across crashes. Per the paper: upon receiving an
// IM alert, the buddy saves a copy to a log file *before* sending the
// acknowledgement (the sender will not resend once acked); after
// processing, the entry is marked "Processed"; on every restart the
// log is scanned for unprocessed entries, which are replayed before
// new alerts are accepted. Duplicate deliveries that arise when the
// buddy fails between routing and marking are detected downstream via
// alert timestamps.
//
// There is one journal type, Log, and one write path through it: an
// append stages its record in memory (a burst of RECVs is encoded as one
// run of keys and payloads, a DONE is its record's ordinal) and joins
// the one open commit batch; a single committer goroutine takes that
// batch whole and writes it with one write and one fsync, while later
// appends open the next. A synchronous append (LogReceived,
// MarkProcessed) returns only once its batch is on disk — that is what
// makes the logging pessimistic. How many appends share an fsync is a
// matter of load and GroupOptions, not of type: Open gives a zero commit
// window, where an append that finds the log idle commits at once (one
// fsync per append, the paper's behaviour for a single buddy); OpenGroup
// with a window paces a busy log so concurrent appenders share fsyncs
// (the hub's ingest WAL).
//
// The log is fail-stop: after a batch write or fsync fails, that error
// is returned to the batch's waiters, to those of the batch that opened
// while it was in flight (never written), and to every later append. A
// failed fsync may have dropped the dirty pages it covered, so retrying
// into the same file could report durable what the disk never saw; the
// owner must close the log and reopen it, which replays what actually
// reached the disk.
//
// On disk the journal is append-only segments of length-prefixed binary
// frames, each protected by a CRC32C trailer (binary.go has the byte
// layout). A torn final frame (crash mid-write) is detected by length
// or checksum and truncated on recovery. The journal is *segmented* so
// that disk, memory, and restart time amortize to O(unprocessed)
// instead of O(all-time): appends go to a fixed-size active segment
// (<base>.NNNNNNNN.seg) that rotates at Options.SegmentBytes; every
// CheckpointEvery records a background goroutine writes a checkpoint file
// (<base>.ckpt.NNNNNNNN) holding only the unprocessed records plus an
// all-time total, then deletes every segment the checkpoint covers;
// processed records are retired from memory by a periodic sweep.
// Recovery loads the newest valid checkpoint and replays the segments
// after its watermark in two passes — their DONEs, then only what a live
// log would still hold, no longer every tail record — keeping the
// per-segment prefix-durability and torn-tail truncation guarantees. See
// segment.go for the segment lifecycle, checkpoint.go for the
// checkpoint format and trigger, and group.go for the commit
// schedule.
package plog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/metrics"
)

// Log errors.
var (
	// ErrUnknownKey indicates MarkProcessed was called for a key that
	// was never logged (or was already retired from memory by the
	// sweep after being processed).
	ErrUnknownKey = errors.New("plog: unknown key")
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("plog: log closed")
	// ErrFormat indicates Open found a file written in another journal
	// format (an earlier release's, say) and touched nothing.
	ErrFormat = errors.New("plog: not a journal format this version reads")

	errEmptyKey = errors.New("plog: empty key")
)

// Defaults for Options.
const (
	// DefaultSegmentBytes caps the active segment before rotation.
	DefaultSegmentBytes = 4 << 20
	// defaultSweepEvery is how many processed (tombstoned) records may
	// accumulate in memory before a sweep retires them.
	defaultSweepEvery = 4096
)

// Options tune the segmented journal. The zero value gives a 4 MiB
// segment size, in-memory sweeping every 4096 processed records, and
// no background checkpointing (call Checkpoint explicitly, or set
// CheckpointEvery).
type Options struct {
	// SegmentBytes caps the active segment: a commit batch that would
	// push it past this size rotates to a fresh segment first (one
	// batch never spans a rotation). Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// CheckpointEvery triggers a background checkpoint + compaction
	// after this many journal records have been appended since the
	// last checkpoint. Zero disables background checkpoints
	// (Checkpoint can still be called explicitly).
	CheckpointEvery int64
	// sweepEvery bounds how many processed records stay resident: once
	// this many tombstones accumulate, a sweep drops them from the
	// in-memory index (Has/IsProcessed then report false for them —
	// safe, because a re-received retired alert merely replays into
	// the downstream timestamp dedup). It now binds replay too, which
	// keeps only the tail's last D mod sweepEvery DONEs' tombstones.
	// Zero means defaultSweepEvery; negative disables sweeping. Only
	// this package's tests set it.
	sweepEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.sweepEvery == 0 {
		o.sweepEvery = defaultSweepEvery
	}
	return o
}

// GroupOptions tune the commit policy: the commit window and the
// journal's segmenting.
type GroupOptions struct {
	// Window is the committer's adaptive upper bound on batching delay,
	// not a fixed tax. Who it delays depends on whether anyone is waiting.
	//
	// Waited-for records (RECV, synchronous MarkProcessed): an
	// append that wakes an idle committer (no fsync in flight) commits
	// immediately, as does a lone record that staged while the previous
	// fsync ran. Only a backlog of two or more waited-for records found
	// when an fsync completes — proof of concurrent appenders — is paced:
	// the committer holds it until a window has passed since that fsync,
	// so a steady stream syncs at most once per window.
	//
	// Async records (MarkProcessed*Async, ReplaceAsync) have no waiter,
	// and Window does not govern them: see doneHold in group.go.
	//
	// A paced or held batch that reaches a force-flush threshold (1,024
	// records or 1 MiB encoded: forceFlushRecords, forceFlushBytes in
	// group.go — constants, not options) commits at once.
	//
	// Zero never paces a waiter: its batch commits as soon as the
	// previous fsync completes (fsync per append for a lone appender).
	Window time.Duration
	// Log configures the segmented journal (segment size, background
	// checkpointing, in-memory sweep).
	Log Options
}

// Record is one logged alert.
type Record struct {
	Key        string
	Payload    []byte
	ReceivedAt time.Time
	Processed  bool
	// seq is the record's all-time ordinal: the value of Log.total that
	// admitted it. A DONE names its record by seq on disk.
	seq int64
}

// BatchEntry is one incoming record in a batched ingest call
// (LogReceivedBatch).
type BatchEntry struct {
	Key     string
	Payload []byte
	At      time.Time
}

// Stats is a point-in-time snapshot of the log's segmentation,
// compaction, recovery, and commit state.
type Stats struct {
	// Total is the all-time number of logged alerts, including records
	// retired from memory and compacted off disk (carried forward in
	// each checkpoint header).
	Total int64
	// Live is the number of records currently resident in memory;
	// Unprocessed of those are awaiting replay/processing.
	Live        int
	Unprocessed int
	// Retired counts processed records the sweep dropped from memory
	// and, a new meaning, those replay skipped instead of indexing.
	Retired int64
	// CorruptRecords counts journal frames and checkpoint files that
	// failed validation during recovery — bad lengths, CRC32C
	// mismatches, malformed bodies (clean torn tails are truncated, not
	// counted).
	CorruptRecords int64
	// Segments is the number of on-disk segments (including the active
	// one); ActiveSegment is the active segment's sequence number.
	Segments      int
	ActiveSegment uint64
	// SegmentsCreated counts rotations since Open (plus the initial
	// segment if it was created rather than reopened).
	SegmentsCreated int64
	// SegmentsReplayed is how many segments Open had to replay — the
	// bounded-recovery figure of merit.
	SegmentsReplayed int
	// CheckpointGen is the generation of the newest durable
	// checkpoint (0 = none); Checkpoints counts checkpoints written
	// since Open; CompactedBytes counts segment bytes deleted.
	CheckpointGen  uint64
	Checkpoints    int64
	CompactedBytes int64
	// DiskBytes is the current on-disk footprint (segments plus the
	// newest checkpoint).
	DiskBytes int64
	// Appended counts journal records staged since Open and Syncs the
	// fsyncs that committed them; Appended/Syncs is the mean commit
	// batch. FsyncLatency is the fsync histogram (microseconds).
	Appended     int64
	Syncs        int64
	FsyncLatency metrics.HistogramSnapshot
	// WaiterlessSyncs counts the fsyncs among Syncs that committed no
	// waited-for record — async records that met no arrival within
	// doneHold (or were flushed by Close) and so bought an fsync alone.
	// UnflushedDones is the DONEs staged but not yet durable: the alerts
	// a crash right now would replay although they were delivered.
	WaiterlessSyncs int64
	UnflushedDones  int64
	// CommitBatches is the journal records per fsync — unbounded: the
	// batch staged during a slow fsync commits whole, so it can exceed
	// the 1,024-record force-flush threshold; StagedBatches the
	// fresh records per LogReceivedBatch ingest burst (a LogReceived is
	// a burst of one).
	CommitBatches metrics.HistogramSnapshot
	StagedBatches metrics.HistogramSnapshot
	// CommitWait is the batch-open→durable latency histogram
	// (microseconds) — how long waited-for records waited for their
	// fsync under the adaptive commit schedule. A batch of async DONEs
	// alone has no waiter and is not observed; one that gains a waiter
	// is timed from that waiter's arrival.
	CommitWait metrics.HistogramSnapshot
}

// Log is a pessimistic, segmented write-ahead log, safe for concurrent
// use.
//
// Ordering guarantee (what the hub relies on): appends join the one open
// batch in the order callers acquire qmu, and the committer takes that
// batch whole, so batches are written and fsynced strictly in staging
// order, each inside a single write. Therefore if append A returned
// before append B was invoked, A's frame precedes B's in the journal,
// and a crash can lose only a suffix of the final in-flight write —
// which recovery truncates at the last complete frame (prefix
// durability). The log rotates *before* a write that would overflow the
// active segment, never inside it, so one write (one fsync) always lands
// in one segment.
//
// Four mutexes, none held across another's disk wait. qmu guards the
// open batch and is held while an append stages; mu guards the index
// and is taken (qmu → mu) only for the map and slice work of staging
// and lookups; fmu guards the files and is held by the committer across
// each write+fsync, by Checkpoint for its rotate (fmu → mu: the
// snapshot must see exactly what the retired segments hold, or more)
// and by Close. The committer never takes mu and nothing that
// stages, dedups or replays takes fmu, so staging and Has never wait on
// the disk. wmu is the watermark's: the committer's once per fsync, and
// a Commit.Wait's only when the watermark has not reached its batch.
type Log struct {
	base string // base path; segments and checkpoints live alongside
	dirf *os.File
	opts GroupOptions

	// mu guards the index: order preserves arrival — which is seq order —
	// and index maps key → position in it. total is the all-time
	// logged-alert count and the newest record's seq; retired
	// counts processed records swept from memory; processedLive counts
	// tombstones still resident (the sweep trigger).
	mu            sync.Mutex
	index         map[string]int
	order         []Record
	total         int64
	retired       int64
	processedLive int

	// fmu guards the files: the active segment (nil once Close released
	// it), the segment range on disk, and the checkpoint state — gen of
	// the newest durable checkpoint, its watermark (segments <= ckptSeq
	// are covered and deletable), and the records written since (the
	// compaction trigger).
	fmu        sync.Mutex
	f          *os.File
	activeSeq  uint64
	activeSize int64
	oldestSeq  uint64 // lowest on-disk segment sequence
	liveSegs   int
	ckptGen    uint64
	ckptSeq    uint64
	sinceCkpt  int64

	// Set by recovery, before the log is shared; read-only afterwards.
	corrupt      int64
	replayedSegs int
	// Recovery's alone, dropped when it ends (see replay).
	replaySlab             []byte
	replayTotal            int64
	replayDone, replayKept []int64

	segsCreated    atomic.Int64
	ckptsWritten   atomic.Int64
	compactedBytes atomic.Int64
	syncs          atomic.Int64
	appended       atomic.Int64
	// The lazy-DONE exposure: fsyncs that committed no waited-for record,
	// and DONEs staged but not yet durable.
	waiterlessSyncs atomic.Int64
	unflushedDones  atomic.Int64

	fsyncLat    metrics.Histogram // microseconds per fsync
	batchSizes  metrics.Histogram // journal records per commit
	stagedSizes metrics.Histogram // fresh records per LogReceivedBatch call
	commitWait  metrics.Histogram // µs from batch open to durable

	ckptMu     sync.Mutex     // serializes Checkpoint calls
	compacting atomic.Bool    // a background checkpoint is running
	compactWG  sync.WaitGroup // the background checkpoint, for Close

	qmu     sync.Mutex
	cond    *sync.Cond    // signalled (under qmu) when a batch opens or the log closes
	closed  bool          // no further appends; the committer drains and exits
	batches [2]groupBatch // used in turn: batch n is batches[n%2]
	open    *groupBatch   // the batch appends join, number opened; nil when none is open
	opened  uint64        // number of the newest batch opened; the first is 1
	failed  error         // sticky: the first batch-write failure poisons the log
	done    chan struct{} // closed when the committer exits
	// flushNow (capacity 1) cuts an in-progress commit pace short:
	// staging signals it when the backlog crosses a force-flush
	// threshold or gains its first waiter, and Close signals it so
	// shutdown never waits out a window. paceTimer is the committer's
	// alone, reused by every pace.
	flushNow  chan struct{}
	paceTimer *time.Timer
	scratch   []byte  // staging buffer reused across appends
	payloads  []byte  // the payload arena's current chunk (L: mu); see stageRecv
	doneSeqs  []int64 // stageDone's output: seqs tombstoned since the last join

	// The watermark, set under wmu: the highest committed batch number,
	// and the failed batches' error. synced (L: wmu) wakes waiters.
	durable atomic.Uint64
	wmu     sync.Mutex
	synced  sync.Cond
	failErr error
}

// Open opens (creating if needed) the log at path with the zero
// GroupOptions: no commit window, so an append that finds the log idle
// is fsynced alone.
func Open(path string) (*Log, error) {
	return OpenGroup(path, GroupOptions{})
}

// OpenGroup opens (creating if needed) the log at path and rebuilds its
// in-memory state from the newest checkpoint plus the segments after
// it.
func OpenGroup(path string, opts GroupOptions) (*Log, error) {
	opts.Log = opts.Log.withDefaults()
	l := &Log{
		base:     path,
		opts:     opts,
		index:    make(map[string]int),
		done:     make(chan struct{}),
		flushNow: make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.qmu)
	l.synced.L = &l.wmu
	dirf, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("plog: opening directory of %s: %w", path, err)
	}
	l.dirf = dirf
	if err := l.replay(); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		dirf.Close()
		return nil, err
	}
	go l.committer()
	return l, nil
}

// addReceivedLocked records one received alert in memory as record seq
// (above every seq so far: total+1 when staging, the journal's own when
// replaying), taking ownership of payload, unless the key is already
// resident (duplicate RECV: first wins, and no seq is spent); it reports
// whether the record was added. Callers pass a private copy when the
// bytes came from outside. Caller holds mu.
func (l *Log) addReceivedLocked(key string, payload []byte, at time.Time, seq int64) bool {
	if _, ok := l.index[key]; ok {
		return false
	}
	l.index[key] = len(l.order)
	l.order = append(l.order, Record{Key: key, Payload: payload, ReceivedAt: at, seq: seq})
	l.total = seq
	return true
}

// markProcessedLocked tombstones one record, dropping its payload
// immediately; the periodic sweep retires the tombstone itself.
func (l *Log) markProcessedLocked(i int) {
	l.order[i].Processed = true
	l.order[i].Payload = nil
	l.processedLive++
}

// maybeSweepLocked retires accumulated tombstones once sweepEvery of
// them are resident, keeping memory O(unprocessed). It compacts order in
// place, zeroing the vacated tail so no retired key pins its slab, and
// refills the cleared index: a steady sweep allocates nothing. Only when
// the kept records and the refill to come (the next sweep is sweepEvery
// records away) need less than a quarter of order's capacity are both
// reallocated at that size, so memory shrinks back after a spike.
func (l *Log) maybeSweepLocked() {
	if l.opts.Log.sweepEvery <= 0 || l.processedLive < l.opts.Log.sweepEvery {
		return
	}
	kept := l.order[:0]
	for _, r := range l.order {
		if !r.Processed {
			kept = append(kept, r)
		}
	}
	clear(l.order[len(kept):])
	l.retired += int64(len(l.order) - len(kept))
	if refill := len(kept) + l.opts.Log.sweepEvery; 4*refill < cap(kept) {
		kept = append(make([]Record, 0, refill), kept...)
		l.index = make(map[string]int, refill)
	} else {
		clear(l.index)
	}
	l.order = kept
	for i, r := range kept {
		l.index[r.Key] = i
	}
	l.processedLive = 0
}

// payloadChunk is the size of one payload arena chunk (see stageRecv).
const payloadChunk = 16 << 10

// stageRecv is the one RECV staging function: under a single index-lock
// acquisition it records every entry whose key is not yet resident and
// appends them to dst in entry order, as one run when they share a
// timestamp. staged counts them; duplicates are skipped (first RECV
// wins). Records are staged before they are durable: Has reports them at
// once, Commit.Wait says when they are on disk. Caller holds qmu.
//
// The records' private payload copies are cap-limited slices of the
// log's payload arena (rehome), so an append to one can never reach its
// neighbour: a call's payloads go into the free tail of the current
// chunk, or into a fresh one when the tail is too small. Since a DONE
// nils the field, a chunk is collectable when its last record is DONE
// and the arena has moved on. Nothing of the caller's buffers is kept.
func (l *Log) stageRecv(dst []byte, entries []BatchEntry) (out []byte, staged int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := len(l.order)
	for _, e := range entries {
		l.addReceivedLocked(e.Key, e.Payload, e.At, l.total+1) // the caller's bytes, until rehome below
	}
	recs := l.order[first:]
	l.payloads = rehome(recs, l.payloads, payloadChunk)
	for n := 0; len(recs) > 0; recs = recs[n:] {
		dst, n = appendRun(dst, recs)
	}
	return dst, int64(len(l.order) - first)
}

// appendSlab copies p onto the end of slab, which must have room, and
// returns the grown slab and the copy: a slice whose capacity ends where
// its length does, nil for an empty p.
func appendSlab(slab, p []byte) (grown, copied []byte) {
	if len(p) == 0 {
		return slab, nil
	}
	lo := len(slab)
	slab = append(slab, p...)
	return slab, slab[lo:len(slab):len(slab)]
}

// stageDone is the one DONE staging function: under a single index-lock
// acquisition it tombstones every key still unprocessed and appends
// their seqs to doneSeqs — the next joinLocked moves them into the open
// batch, and the committer encodes a batch's seqs as one DONE list —
// with one sweep check at the end. Per-key failures (ErrUnknownKey) land
// in errs, which is nil when every key staged cleanly and otherwise
// parallel to keys; already-processed keys are no-ops. Caller holds qmu.
func (l *Log) stageDone(keys []string) (errs []error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	staged := len(l.doneSeqs)
	for i, key := range keys {
		j, ok := l.index[key]
		if !ok {
			if errs == nil {
				errs = make([]error, len(keys))
			}
			errs[i] = fmt.Errorf("plog: mark processed %q: %w", key, ErrUnknownKey)
			continue
		}
		if l.order[j].Processed {
			continue
		}
		l.doneSeqs = append(l.doneSeqs, l.order[j].seq)
		l.markProcessedLocked(j)
	}
	if len(l.doneSeqs) > staged {
		l.maybeSweepLocked()
	}
	return errs
}

// LogReceived durably records an incoming alert before it is
// acknowledged — the size-1 case of LogReceivedBatch. Logging the same
// key twice is a no-op (idempotent), so replay after a
// crash-during-ack is safe; the duplicate call still waits for any
// in-flight batch, so a caller acking the duplicate cannot outrun the
// original's durability.
func (l *Log) LogReceived(key string, payload []byte, at time.Time) error {
	return l.LogReceivedBatch([]BatchEntry{{Key: key, Payload: payload, At: at}})
}

// LogReceivedBatch durably records a burst of incoming alerts in one
// shot: one lock round-trip, one encode pass, one batch join, and one
// durability wait for the whole burst. Entries land in the journal in
// slice order. When it returns nil, every entry is on disk.
//
// A burst joins the open batch as a unit, and the batch commits whole
// however large it grows; a batch never spans a segment rotation.
func (l *Log) LogReceivedBatch(entries []BatchEntry) error {
	c, err := l.LogReceivedBatchStart(entries)
	if err != nil {
		return err
	}
	return c.Wait()
}

// LogReceivedBatchStart is the staging half of LogReceivedBatch: it
// stages the burst and returns a Commit to wait on instead of blocking.
// The caller may keep several bursts in flight (the hub's pipelined
// ingest) and wait on the Commits later, in staging order; records are
// NOT durable until Wait returns nil. A burst of nothing but duplicates
// returns the open or in-flight batch, so its Wait still covers the
// originals' durability.
func (l *Log) LogReceivedBatchStart(entries []BatchEntry) (Commit, error) {
	if len(entries) == 0 {
		return Commit{}, nil
	}
	for i := range entries {
		if entries[i].Key == "" {
			return Commit{}, errEmptyKey
		}
	}
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if err := l.unusableLocked(); err != nil {
		return Commit{}, err
	}
	buf, staged := l.stageRecv(l.scratch[:0], entries)
	if staged > 0 {
		l.stagedSizes.Observe(staged)
	}
	return l.joinLocked(buf, staged, true), nil
}

// markProcessed stages DONE records for keys and returns the Commit
// that will make them durable; every public Mark* is a view of it (their
// time argument is not journaled: a DONE says which record, not when).
// wait says whether the caller will Wait on that Commit (see joinLocked).
func (l *Log) markProcessed(keys []string, wait bool) (Commit, []error) {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if err := l.unusableLocked(); err != nil {
		errs := make([]error, len(keys))
		for i := range errs {
			errs[i] = err
		}
		return Commit{}, errs
	}
	errs := l.stageDone(keys)
	return l.joinLocked(l.scratch, 0, wait), errs
}

// MarkProcessed durably records that the alert has been fully routed,
// returning once the batch holding the DONE record has been fsynced.
func (l *Log) MarkProcessed(key string, _ time.Time) error {
	c, errs := l.markProcessed([]string{key}, true)
	if errs != nil {
		return errs[0]
	}
	return c.Wait()
}

// MarkProcessedAsync stages the DONE record and returns without waiting
// for an fsync (staging errors, e.g. ErrUnknownKey, are still reported);
// nor does it schedule one. The DONE rides the next commit somebody waits
// on — the next arrival's RECV, a synchronous mark, a Flush — or
// Checkpoint or Close, and failing all of those is flushed doneHold
// after it was staged, whatever GroupOptions.Window is. Unlike a RECV,
// which must be durable before the ack, a DONE is safe to lose: a crash
// before its flush replays the alert on restart with its original
// timestamp and the receiver's dedup discards the duplicate. That replay
// window is therefore min(next waited-for commit, doneHold) plus one
// fsync wide: the next burst under load, the constant at idle.
// Stats.UnflushedDones is its current occupancy.
func (l *Log) MarkProcessedAsync(key string, _ time.Time) error {
	if _, errs := l.markProcessed([]string{key}, false); errs != nil {
		return errs[0]
	}
	return nil
}

// MarkProcessedBatchAsync is MarkProcessedAsync for a burst of keys,
// costing one lock round-trip for the whole burst. Per-key staging
// failures (ErrUnknownKey) are reported in the returned slice, which is
// nil when every key staged cleanly and otherwise parallel to keys.
func (l *Log) MarkProcessedBatchAsync(keys []string, _ time.Time) []error {
	if len(keys) == 0 {
		return nil
	}
	_, errs := l.markProcessed(keys, false)
	return errs
}

// ReplaceAsync atomically supersedes oldKey with a fresh record under
// newKey: RECV(newKey) then DONE(oldKey) staged together and joined to
// one batch as a unit — one write, never split by a rotation — so a
// crash can never lose both generations: a torn tail drops at most the
// DONE, leaving both records for the caller's replay collapse (a batch's
// DONE list follows its RECV runs for exactly that reason). Like
// MarkProcessedAsync it schedules no fsync and reports staging errors
// only; until the unit lands a crash replays oldKey. A missing or
// already-processed oldKey is tolerated (the supersede is then a plain
// RECV); a newKey that already exists is idempotent, and oldKey is still
// retired. This is the retry outbox's one write: a handoff journals the
// envelope and retires the hub's record of the alert, and each
// redelivery round re-persists the envelope under a round-stamped key
// and tombstones the previous round.
func (l *Log) ReplaceAsync(oldKey, newKey string, payload []byte, at time.Time) error {
	if newKey == "" {
		return errEmptyKey
	}
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if err := l.unusableLocked(); err != nil {
		return err
	}
	buf, staged := l.stageRecv(l.scratch[:0], []BatchEntry{{Key: newKey, Payload: payload, At: at}})
	if oldKey != newKey {
		_ = l.stageDone([]string{oldKey}) // an unknown oldKey is tolerated
	}
	l.joinLocked(buf, staged, false)
	return nil
}

// appendBatch writes buf (whole frames, records records in all) to the
// active segment and fsyncs it — the committer's one write primitive. It
// rotates first if the write would overflow the segment, so a batch
// never spans a rotation; a crash mid-write tears at most a suffix of
// buf, which recovery truncates at the last complete frame. It holds
// the file lock across the disk wait and never the index lock.
func (l *Log) appendBatch(buf []byte, records int64) error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.activeSize > segHeaderSize && l.activeSize+int64(len(buf)) > l.opts.Log.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(buf)
	if err != nil {
		return fmt.Errorf("plog: appending to %s: %w", l.f.Name(), err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("plog: syncing %s: %w", l.f.Name(), err)
	}
	l.fsyncLat.Observe(time.Since(start).Microseconds())
	l.syncs.Add(1)
	l.activeSize += int64(n)
	l.sinceCkpt += records
	l.maybeCompactLocked()
	return nil
}

// Has reports whether key is resident in the log's memory: logged
// (possibly not yet durable) and not yet retired by the sweep (a
// retired key re-logs as a fresh record, which downstream timestamp
// dedup discards).
func (l *Log) Has(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[key]
	return ok
}

// IsProcessed reports whether key has been marked processed and is
// still resident in memory.
func (l *Log) IsProcessed(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := l.index[key]
	return ok && l.order[i].Processed
}

// Unprocessed returns the records received but not yet processed, in
// arrival order — the restart replay set.
func (l *Log) Unprocessed() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.unprocessedLocked()
	rehome(out, nil, 0) // the caller gets copies, in one slab, not the log's own bytes
	return out
}

// unprocessedLocked returns the unprocessed records in arrival order,
// sharing the log's payload bytes; nil when there are none. Caller holds
// mu.
func (l *Log) unprocessedLocked() []Record {
	n := len(l.order) - l.processedLive
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for _, r := range l.order {
		if !r.Processed {
			out = append(out, r)
		}
	}
	return out
}

// rehome replaces every record's payload with a copy appended to arena
// — each a slice whose capacity ends where its length does — so the
// records stop referencing whatever held their payloads before, and
// returns the arena. When arena's free tail is smaller than the copies,
// they go into a fresh chunk of chunk bytes or of exactly their size.
func rehome(recs []Record, arena []byte, chunk int) []byte {
	size := 0
	for i := range recs {
		size += len(recs[i].Payload)
	}
	if cap(arena)-len(arena) < size {
		arena = make([]byte, 0, max(chunk, size))
	}
	for i := range recs {
		arena, recs[i].Payload = appendSlab(arena, recs[i].Payload)
	}
	return arena
}

// Len returns the all-time number of logged alerts, including records
// retired from memory and compacted off disk.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.total)
}

// Pending returns the number of live records not yet marked processed
// — the replay backlog a restart would face right now. Cheap (two
// fields under the lock, no payload copies), so resource-invariant
// checks can poll it.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order) - l.processedLive
}

// Stats snapshots the segmentation, compaction, and commit state. The
// index half and the file half are read one after the other, each under
// its own lock, and the segment files are sized with neither held, so
// polling a live log never stalls staging.
func (l *Log) Stats() Stats {
	s := Stats{
		CorruptRecords:   l.corrupt,
		SegmentsCreated:  l.segsCreated.Load(),
		SegmentsReplayed: l.replayedSegs,
		Checkpoints:      l.ckptsWritten.Load(),
		CompactedBytes:   l.compactedBytes.Load(),
		Appended:         l.appended.Load(),
		Syncs:            l.syncs.Load(),
		WaiterlessSyncs:  l.waiterlessSyncs.Load(),
		UnflushedDones:   l.unflushedDones.Load(),
		FsyncLatency:     l.fsyncLat.Snapshot(),
		CommitBatches:    l.batchSizes.Snapshot(),
		StagedBatches:    l.stagedSizes.Snapshot(),
		CommitWait:       l.commitWait.Snapshot(),
	}
	l.mu.Lock()
	s.Total = l.total
	s.Live = len(l.order)
	s.Unprocessed = len(l.order) - l.processedLive
	s.Retired = l.retired
	l.mu.Unlock()

	l.fmu.Lock()
	s.Segments = l.liveSegs
	s.ActiveSegment = l.activeSeq
	s.CheckpointGen = l.ckptGen
	oldest := l.oldestSeq
	// The active segment counts its written bytes, not its preallocated
	// file size.
	s.DiskBytes = l.activeSize
	l.fmu.Unlock()

	for seq := oldest; seq < s.ActiveSegment; seq++ {
		if fi, err := os.Stat(l.segPath(seq)); err == nil {
			s.DiskBytes += fi.Size()
		}
	}
	if s.CheckpointGen > 0 {
		if fi, err := os.Stat(l.ckptPath(s.CheckpointGen)); err == nil {
			s.DiskBytes += fi.Size()
		}
	}
	return s
}

// HoldFilesForTest takes the file lock until the returned func is called:
// to everyone else the committer is stuck mid-fsync. It lets another
// package's test prove that something does not wait on this log's disk.
func (l *Log) HoldFilesForTest() (release func()) {
	l.fmu.Lock()
	return l.fmu.Unlock
}

// Path returns the journal base path (segments and checkpoints are
// derived from it).
func (l *Log) Path() string { return l.base }

// Close flushes every staged batch, stops the committer, waits for a
// background checkpoint, and releases the file handles. Further appends
// fail with ErrClosed.
func (l *Log) Close() error {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.cutPaceLocked()
	l.qmu.Unlock()
	<-l.done
	l.compactWG.Wait()
	l.fmu.Lock()
	defer l.fmu.Unlock()
	// Drop the preallocated tail so a closed journal occupies only its
	// real bytes (best-effort; an untruncated zero tail replays
	// cleanly).
	_ = l.f.Truncate(l.activeSize)
	err := l.f.Close()
	l.f = nil
	if derr := l.dirf.Close(); err == nil {
		err = derr
	}
	return err
}
