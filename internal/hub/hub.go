// Package hub is the multi-tenant hosting layer that multiplexes many
// MyAlertBuddies into one simbad process. The paper's buddy is a
// personal, always-on router — one process per user; the hub keeps the
// same dependability contract (pessimistic log before ack, replay on
// restart, timestamp-based duplicate detection downstream) while
// hosting thousands of users behind a shard table:
//
//   - User IDs hash onto K shards. Each shard has bounded admission:
//     when its DefaultQueueDepth slots are taken, Submit fails with an
//     OverloadError carrying a retry hint. An alert is never
//     acknowledged (Submit never returns nil) unless it is durable, and
//     a durable alert is never silently dropped — it is either routed
//     and marked processed or replayed by the next incarnation.
//   - A shard is its delivery stage: each acknowledged alert joins its
//     user's chain, and the worker that owns the chain runs the buddy's
//     pipeline on it — classify, aggregate, filter, then deliver through
//     the shared mode executor (core.Channel Sends under a bounded
//     in-flight window, capped and jittered retry backoff). Alerts for
//     the same user are chained (per-user FIFO), alerts for different
//     users overlap, so a slow evaluation or delivery stalls one
//     tenant's chain instead of the shard.
//   - Durability is one WAL writer with many stagers: every shard
//     stages its RECV and DONE records into one plog.Log, whose single
//     committer writes each backlog with one write and one fsync — a
//     burst that fans out over several shards costs one fsync, not one
//     per shard touched. Staging takes only the log's short index lock,
//     never the file lock the committer holds across the disk wait, and
//     DONE marks (async, safe to lose) never schedule an fsync: they
//     ride the next burst's commit, and with no burst in sight are
//     flushed at the journal's lazy-DONE deadline (plog's doneHold, not
//     CommitWindow). Log-before-ack is preserved, fsyncs per alert
//     cut by orders of magnitude. The hub holds exactly that one
//     journal — the guaranteed tier's retry outbox journals its
//     envelopes into it too; New refuses a directory written in another
//     journal format (plog.ErrFormat) and leaves it untouched.
//   - On restart one pass over the journal's unprocessed records hands
//     outbox envelopes to the outbox and replays every alert, in log
//     order (so per-user order holds), through the rebuilt buddies
//     before the hub accepts new traffic.
//   - Per-shard admission depths, admission rejects, commit-batch
//     sizes, and per-stage latencies are exposed via
//     internal/metrics; Drain stops intake, lets the shards finish
//     their chains, and flushes the WAL.
package hub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/metrics"
	"simba/internal/outbox"
	"simba/internal/plog"
)

// Defaults: what a zero Config field means.
const (
	// DefaultShards is the shard count when Config.Shards is zero.
	DefaultShards = 4
	// DefaultQueueDepth bounds each shard's admitted-but-unfinished
	// alerts (in admission, chained, or in delivery).
	DefaultQueueDepth = 256
	// defaultDeliveryWindow bounds each shard's delivery workers.
	defaultDeliveryWindow = 32
	// defaultDeliveryMaxAttempts is the per-alert delivery attempt cap
	// (1 initial try + retries) before the alert counts as
	// undeliverable.
	defaultDeliveryMaxAttempts = 4
	// defaultDeliveryBackoff is the base retry backoff; attempt n waits
	// roughly backoff·2ⁿ⁻¹ with jitter, capped.
	defaultDeliveryBackoff = time.Millisecond
	// defaultDeliveryBackoffCap caps the exponential retry backoff.
	defaultDeliveryBackoffCap = 100 * time.Millisecond
	// defaultWALCheckpointEvery triggers a WAL checkpoint + segment
	// compaction after this many journal records — large enough that
	// short runs never pay for a checkpoint, small enough that a
	// long-lived hub's disk and restart time stay bounded.
	defaultWALCheckpointEvery = 65536
)

// Fixed sizes and bounds: no production caller ever set these, so they
// are constants, not Config fields.
const (
	// defaultLatencyReservoir bounds each latency recorder's sample
	// memory on million-alert runs.
	defaultLatencyReservoir = 4096
	// defaultAsyncInFlight is the capacity of the commit resolver's
	// inbox, the ingest path's one bound on staged, unresolved tickets:
	// a submitter past it blocks after staging, until the resolver takes
	// a ticket.
	defaultAsyncInFlight = 256
	// defaultQuiesceTimeout bounds how long a kill+replay restart waits
	// for the killed generation's workers to stop before scanning the
	// WAL, and how long Drain waits for staged bursts to resolve.
	defaultQuiesceTimeout = 5 * time.Second
)

// keySep joins the tenant ID and the alert's dedup key inside WAL
// record keys, so recovery can attribute each entry to its user. It is
// a control character no user ID or dedup key contains.
const keySep = "\x1f"

// Hub errors.
var (
	// ErrNotAccepting indicates the hub is not started, draining, or
	// killed. The sender should fail over, not retry immediately.
	ErrNotAccepting = errors.New("hub: not accepting alerts")
	// ErrUnknownUser indicates no tenant is registered for the user.
	ErrUnknownUser = errors.New("hub: unknown user")
)

// OverloadError is the admission-control rejection: the target shard's
// queue is full. The alert was NOT logged or acknowledged — the sender
// must retry (after RetryAfter) or fall back, exactly as if the ack had
// been lost. Rejecting before the pessimistic log keeps the invariant
// "never silently drop an acknowledged alert".
type OverloadError struct {
	User  string
	Shard int
	// Depth is the shard queue's configured capacity.
	Depth int
	// RetryAfter is a hint: roughly how long until the shard has
	// drained enough of its queue to admit new work.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("hub: shard %d overloaded (queue depth %d); retry after %v",
		e.Shard, e.Depth, e.RetryAfter)
}

// faultPoint names a place on the alert path where Config.fault is
// consulted.
type faultPoint int

// The fault points, in the order an alert meets them.
const (
	// faultAfterBatchFsync: a burst's RECV batch is durable — its
	// senders are acknowledged — and none of it is enqueued yet; the next
	// incarnation must cover the burst by replay.
	faultAfterBatchFsync faultPoint = iota
	// faultRoute: a worker has taken an envelope off its user's chain
	// and not yet evaluated the tenant's pipeline on it; a wedge here
	// stalls that chain only, and a kill abandons the envelope and the
	// rest of its chain to replay.
	faultRoute
	// faultBeforeMark: a worker has executed a delivery and not yet
	// marked the alert processed — the paper's crash between routing and
	// marking.
	faultBeforeMark
)

// String names the point for the fault journal.
func (p faultPoint) String() string {
	switch p {
	case faultAfterBatchFsync:
		return "between batch fsync and enqueue"
	case faultRoute:
		return "before routing an alert"
	case faultBeforeMark:
		return "between delivery and mark-processed"
	default:
		return fmt.Sprintf("at fault point %d", int(p))
	}
}

// flatAddressName is the friendly name of the synthesized address that
// routes profile-less tenants through the substrate channel — whatever
// core.Channel is registered under addr.TypeSink.
const flatAddressName = "substrate"

// Config parameterizes the hub.
type Config struct {
	// Clock is required.
	Clock clock.Clock
	// Channels is the delivery channel registry the shared mode
	// executor draws from (IM, email, SMS, ...); required. Tenants
	// without a personalized delivery mode execute one Send through the
	// channel registered under addr.TypeSink — the flat substrate, which
	// reads the tenant and shard off the request (core.Send.User/Shard).
	Channels *core.Channels
	// AckTimeout, when positive, substitutes for the default block
	// timeout in hosted delivery modes: blocks that do not specify a
	// timeout wait this long for an acknowledgement before falling
	// back, instead of dmode.DefaultBlockTimeout. It bounds how long a
	// tenant's ack wait can park its delivery chain and hold its
	// admission reservation — not a delivery-window slot, which a
	// parked wait does not occupy.
	AckTimeout time.Duration
	// WALPath is the journal base path; required. Every shard and the
	// retry outbox stage into the one plog.Log there; New refuses a
	// directory written in another journal format (plog.ErrFormat) and
	// leaves it untouched.
	WALPath string
	// Shards is the shard-table size; zero means DefaultShards.
	Shards int
	// CommitWindow is the group-commit window's upper bound (wall
	// clock). The commit schedule is adaptive (plog.GroupOptions.Window):
	// an append that ends an idle spell commits immediately, so the
	// window taxes only steady streams. Zero commits as soon as the
	// previous fsync finishes.
	CommitWindow time.Duration
	// RNG seeds the per-shard forked RNGs handed to simulated
	// substrates. Optional.
	RNG *dist.RNG
	// Journal records replay/recovery actions and, under Supervise,
	// check failures and escalations. Optional.
	Journal *faults.Journal
	// Deprecated: OutboxPath is ignored. The guaranteed tier's retry
	// outbox always exists and journals into the WAL at WALPath.
	OutboxPath string
	// OutboxBackoff is the outbox's base per-round redelivery backoff;
	// zero means outbox.DefaultBackoff.
	OutboxBackoff time.Duration

	// The knobs below are set only by this package's tests; a zero
	// value means the default. A knob is exported once a caller
	// outside the package needs it.

	// onDelivery, when set, observes every delivery-mode execution
	// attempt on the hub's delivery workers: the per-attempt report
	// (block fallback trace) and the attempt's error, nil on success.
	// Both are borrowed from the worker's scratch (core.Scratch) and
	// valid only during the call: copy what must outlive it. Must be
	// safe for concurrent calls.
	onDelivery func(user string, rep *core.Report, err error)
	// queueDepth bounds each shard's admitted-but-unfinished alerts; zero means
	// DefaultQueueDepth.
	queueDepth int
	// walSegmentBytes caps the WAL's active segment before it rotates;
	// zero means plog.DefaultSegmentBytes (4 MiB).
	walSegmentBytes int64
	// walCheckpointEvery triggers a background WAL checkpoint +
	// compaction after this many journal records; zero means
	// defaultWALCheckpointEvery, negative disables checkpointing.
	walCheckpointEvery int64
	// deliveryWindow bounds each shard's delivery workers — its routing
	// plus channel Sends; zero means defaultDeliveryWindow. A delivery
	// waiting for an ack or a retry backoff is parked data holding no
	// worker (parked waits are bounded by queueDepth). One serializes a
	// shard's routing and Sends.
	deliveryWindow int
	// deliveryMaxAttempts caps delivery attempts per alert (initial try
	// plus retries); zero means defaultDeliveryMaxAttempts.
	deliveryMaxAttempts int
	// deliveryBackoff is the base retry backoff (exponential per
	// attempt, jittered); zero means defaultDeliveryBackoff.
	deliveryBackoff time.Duration
	// deliveryBackoffCap caps the exponential backoff; zero means
	// defaultDeliveryBackoffCap.
	deliveryBackoffCap time.Duration
	// outboxBackoffCap caps the outbox's exponential round backoff;
	// zero means outbox.DefaultBackoffCap.
	outboxBackoffCap time.Duration
	// outboxEscalateEvery is how many exhausted outbox rounds an
	// envelope spends per delivery-mode block before escalating to the
	// next block; zero means outbox.DefaultEscalateEvery, negative
	// disables escalation.
	outboxEscalateEvery int
	// fault is the hub's one fault-injection seam. When set, it is
	// consulted at each faultPoint with the shard concerned (-1 at
	// faultAfterBatchFsync, whose burst may span shards) and the kill
	// signal of what is running there — the shard generation's, or the
	// hub's. A true reply kills the whole hub at that point, once,
	// journaled; a call that blocks wedges the caller — the resolver, or
	// the worker that owns one tenant's chain — exactly where a stuck
	// stage would, and watching killed lets the wedge clear when a
	// supervisor kills the generation. Must be safe for concurrent
	// calls. Optional.
	fault func(p faultPoint, shard int, killed <-chan struct{}) (crash bool)
}

// Hub hosts N per-user buddies across K shards over one group-commit
// WAL. It is safe for concurrent use.
type Hub struct {
	cfg    Config
	wal    *plog.Log
	shards []*shard
	// outbox is the guaranteed-tier retry outbox, a tenant of wal.
	outbox   *outbox.Outbox
	redo     *core.Scratch // the redelivery loop's, with redoWire
	redoWire []byte

	// The shared delivery machinery: channel registry, ack table, and
	// the stateless mode executor every delivery worker calls into.
	channels *core.Channels
	acks     *core.Acks
	exec     *core.Executor
	// The synthesized flat plan profile-less tenants execute: one block,
	// one action, through the addr.TypeSink substrate channel.
	flatReg  *addr.Registry
	flatMode *dmode.Mode

	mu      sync.RWMutex
	users   map[string]*Buddy
	buddies []Buddy // the free tail of AddUser's current slab of 64 tenants
	started bool

	// Pipelined ingest plumbing: one FIFO resolver goroutine waits out
	// staged bursts' commits in staging order and only then enqueues
	// them to their shards — the deferred enqueue that keeps
	// admission→log→ack→enqueue ordering intact when submitters hold
	// several batches in flight. resolveq's capacity is
	// defaultAsyncInFlight; ingestPending counts staged-but-unresolved
	// tickets of either path so Drain can wait out deferred enqueues.
	resolveq      chan *ticket
	ingestPending atomic.Int64
	// noErrs is the one result every burst of up to 1,024 entries
	// without a failed entry shares: all nil, never written (noErrors).
	noErrs [1024]error

	accepting atomic.Bool
	killed    chan struct{}
	killOnce  sync.Once
	crashOnce sync.Once
	stopOnce  sync.Once
	// walClosed tells the resolver the WAL is closed, so every commit it
	// still holds resolves at once: it drains them, exits and closes
	// resolverExited, and only then is stopped closed.
	walClosed, resolverExited chan struct{}
	stopped                   chan struct{}
	closeErr                  error

	counters *metrics.CounterSet
	// Hot-path counter handles, resolved once in New: bumping one is a
	// single striped atomic add — no name lookup, no mutex.
	ctr struct {
		received, duplicates, rejectsOverload, rejectedInvalid, rejectedUnknownUser *metrics.Counter
		routed, rejected, filtered, markFailed                                      *metrics.Counter
		delivered, undeliverable, deliveryRetries, outboxHandoffs                   *metrics.Counter
		// Per-QoS-tier outcome counters, indexed by core.Tier:
		// delivered-tier-*, duplicates-tier-*, lost-tier-*.
		tierDelivered, tierDuplicated, tierLost [core.NumTiers]*metrics.Counter
	}
	// deliveredVia maps the standard channel types to their resolved
	// delivered-via-<type> counters, built once in New and read-only
	// after — the delivery hot path bumps a handle instead of
	// concatenating a counter name per alert. Unknown (custom-channel)
	// types fall back to CounterSet's name lookup.
	deliveredVia map[addr.Type]*metrics.Counter

	// Per-stage latency split: ack → a worker takes the envelope off
	// its chain, pipeline evaluation on that worker, and evaluation →
	// delivery completion (window wait + sink attempts + backoff).
	queueWait  *metrics.Recorder
	routeLat   *metrics.Recorder
	deliverLat *metrics.Recorder
	// admitLat is submit → burst acknowledged (durable) — the admission
	// latency the adaptive commit scheduler shrinks.
	admitLat *metrics.Recorder
}

// New validates the config and opens the hub's WAL. Call AddUser for
// each tenant, then Start.
func New(cfg Config) (*Hub, error) {
	if cfg.Clock == nil {
		return nil, errors.New("hub: Config requires Clock")
	}
	if cfg.Channels == nil {
		return nil, errors.New("hub: Config requires a Channels registry")
	}
	if cfg.WALPath == "" {
		return nil, errors.New("hub: Config requires WALPath")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = DefaultQueueDepth
	}
	if cfg.deliveryWindow <= 0 {
		cfg.deliveryWindow = defaultDeliveryWindow
	}
	if cfg.deliveryMaxAttempts <= 0 {
		cfg.deliveryMaxAttempts = defaultDeliveryMaxAttempts
	}
	if cfg.deliveryBackoff <= 0 {
		cfg.deliveryBackoff = defaultDeliveryBackoff
	}
	if cfg.deliveryBackoffCap <= 0 {
		cfg.deliveryBackoffCap = defaultDeliveryBackoffCap
	}
	if cfg.deliveryBackoffCap < cfg.deliveryBackoff {
		cfg.deliveryBackoffCap = cfg.deliveryBackoff
	}
	if cfg.RNG == nil {
		cfg.RNG = dist.NewRNG(1)
	}
	switch {
	case cfg.walCheckpointEvery == 0:
		cfg.walCheckpointEvery = defaultWALCheckpointEvery
	case cfg.walCheckpointEvery < 0:
		cfg.walCheckpointEvery = 0 // disable background compaction
	}
	wal, err := plog.OpenGroup(cfg.WALPath, plog.GroupOptions{
		Window: cfg.CommitWindow,
		Log: plog.Options{
			SegmentBytes:    cfg.walSegmentBytes,
			CheckpointEvery: cfg.walCheckpointEvery,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("hub: opening WAL: %w", err)
	}
	h := &Hub{
		cfg:            cfg,
		wal:            wal,
		users:          make(map[string]*Buddy),
		killed:         make(chan struct{}),
		walClosed:      make(chan struct{}),
		resolverExited: make(chan struct{}),
		stopped:        make(chan struct{}),
		counters:       &metrics.CounterSet{},
		queueWait:      metrics.NewReservoir(defaultLatencyReservoir),
		routeLat:       metrics.NewReservoir(defaultLatencyReservoir),
		deliverLat:     metrics.NewReservoir(defaultLatencyReservoir),
		admitLat:       metrics.NewReservoir(defaultLatencyReservoir),
		resolveq:       make(chan *ticket, defaultAsyncInFlight),
	}
	h.ctr.received = h.counters.Counter("received")
	h.ctr.duplicates = h.counters.Counter("duplicates")
	h.ctr.rejectsOverload = h.counters.Counter("rejects-overload")
	h.ctr.rejectedInvalid = h.counters.Counter("rejected-invalid")
	h.ctr.rejectedUnknownUser = h.counters.Counter("rejected-unknown-user")
	h.ctr.routed = h.counters.Counter("routed")
	h.ctr.rejected = h.counters.Counter("rejected")
	h.ctr.filtered = h.counters.Counter("filtered")
	h.ctr.markFailed = h.counters.Counter("mark-failed")
	h.ctr.delivered = h.counters.Counter("delivered")
	h.ctr.undeliverable = h.counters.Counter("undeliverable")
	h.ctr.deliveryRetries = h.counters.Counter("delivery-retries")
	h.ctr.outboxHandoffs = h.counters.Counter("outbox-handoffs")
	for t := core.Tier(0); t < core.NumTiers; t++ {
		h.ctr.tierDelivered[t] = h.counters.Counter("delivered-tier-" + t.String())
		h.ctr.tierDuplicated[t] = h.counters.Counter("duplicates-tier-" + t.String())
		h.ctr.tierLost[t] = h.counters.Counter("lost-tier-" + t.String())
	}
	h.deliveredVia = make(map[addr.Type]*metrics.Counter, 4)
	for _, t := range []addr.Type{addr.TypeIM, addr.TypeSMS, addr.TypeEmail, addr.TypeSink} {
		h.deliveredVia[t] = h.counters.Counter(deliveredViaCounter(t))
	}
	h.channels = cfg.Channels
	h.acks = core.NewAcks(cfg.Clock)
	exec, err := core.NewExecutor(cfg.Clock, h.channels, h.acks)
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	h.exec = exec
	h.flatReg = addr.NewRegistry("hub")
	if err := h.flatReg.Register(addr.Address{
		Type: addr.TypeSink, Name: flatAddressName, Target: flatAddressName, Enabled: true,
	}); err != nil {
		_ = wal.Close()
		return nil, err
	}
	h.flatMode = &dmode.Mode{
		Name:   "Flat",
		Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: flatAddressName}}}},
	}
	h.shards = make([]*shard, cfg.Shards)
	for i := range h.shards {
		// The shard's generation 1, its delivery stage, is built by
		// Start; the shard itself carries only what survives restarts.
		h.shards[i] = newShard(i, cfg.queueDepth, cfg.RNG.Fork(fmt.Sprintf("hub-shard-%d", i)))
	}
	h.outbox = outbox.New(wal, outbox.Options{
		Clock:         cfg.Clock,
		Backoff:       cfg.OutboxBackoff,
		BackoffCap:    cfg.outboxBackoffCap,
		EscalateEvery: cfg.outboxEscalateEvery,
		Journal:       cfg.Journal,
	})
	h.redo = core.NewScratch(nil)
	go h.resolver() // Drain or Kill stops it, as it stops the WAL's committer
	return h, nil
}

// Outbox returns the guaranteed-tier retry outbox (never nil).
func (h *Hub) Outbox() *outbox.Outbox { return h.outbox }

// Executor returns the hub's shared mode executor.
func (h *Hub) Executor() *core.Executor { return h.exec }

// HandleIncoming feeds an inbound IM to the shared ack table. If the
// message acknowledges an IM sent by a hosted delivery in flight, the
// waiting block resolves and HandleIncoming reports true (the message
// is consumed). Wire the hub's IM endpoint receive callback here.
func (h *Hub) HandleIncoming(msg im.Message) bool {
	return h.acks.HandleIncoming(msg)
}

// fault consults Config.fault at point p and, on a true reply, kills
// the hub — once however many callers reach a crash point together,
// with one journal line — and reports true: the caller abandons what it
// was doing, as a crash there would.
func (h *Hub) fault(p faultPoint, shard int, killed <-chan struct{}) bool {
	if f := h.cfg.fault; f == nil || !f(p, shard, killed) {
		return false
	}
	h.crashOnce.Do(func() {
		h.journal(faults.KindFaultInjected, "hub killed %s (shard %d)", p, shard)
		h.Kill()
	})
	return true
}

func (h *Hub) journal(kind faults.Kind, format string, args ...any) {
	if h.cfg.Journal != nil {
		h.cfg.Journal.Recordf(h.cfg.Clock.Now(), kind, format, args...)
	}
}
