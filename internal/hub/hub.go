// Package hub is the multi-tenant hosting layer that multiplexes many
// MyAlertBuddies into one simbad process. The paper's buddy is a
// personal, always-on router — one process per user; the hub keeps the
// same dependability contract (pessimistic log before ack, replay on
// restart, timestamp-based duplicate detection downstream) while
// hosting thousands of users behind a shard table:
//
//   - User IDs hash onto K shards. Each shard owns a single-goroutine
//     event loop and a bounded inbound queue with explicit admission
//     control: when the queue is full, Submit fails with an
//     OverloadError carrying a retry hint. An alert is never
//     acknowledged (Submit never returns nil) unless it is durable, and
//     a durable alert is never silently dropped — it is either routed
//     and marked processed or replayed by the next incarnation.
//   - Routing and delivery are pipelined: the shard loop evaluates the
//     tenant pipeline and stages WAL work, while channel Sends (the
//     shared mode executor, core.Channel) run in a per-shard delivery
//     stage — a bounded in-flight window of workers with capped,
//     jittered retry backoff. Alerts for the same user are
//     chained (per-user FIFO), alerts for different users overlap, so a
//     slow delivery stalls one tenant's chain instead of the shard.
//   - Durability is one WAL writer with many stagers: every shard
//     stages its RECV and DONE records into one plog.Log, whose single
//     committer writes each backlog with one write and one fsync — a
//     burst that fans out over several shards costs one fsync, not one
//     per shard touched. Staging takes only the log's short index lock,
//     never the file lock the committer holds across the disk wait, and
//     DONE marks (async, safe to lose) do not spend fsyncs of their
//     own while acks are flowing: alone they are flushed lazily, within
//     one commit window, and a burst's RECVs cut that pace short and
//     take them along. Log-before-ack is preserved, fsyncs per alert
//     cut by orders of magnitude. The hub holds exactly that one
//     journal: partitioning it into lanes lost on every measured host
//     (DESIGN.md §8), and a directory still holding lane files from such
//     a layout is refused by New rather than half-read.
//   - On restart the journal's unprocessed records are replayed, in
//     log order (so per-user order holds), through the rebuilt buddies
//     before the hub accepts new traffic.
//   - Per-shard queue depths, admission rejects, commit-batch sizes,
//     and end-to-end routing latency are exposed via internal/metrics;
//     Drain stops intake, lets the shards finish their queues, and
//     flushes the WAL.
package hub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/metrics"
	"simba/internal/outbox"
	"simba/internal/plog"
)

// Defaults: what a zero Config field means.
const (
	// DefaultShards is the shard count when Config.Shards is zero.
	DefaultShards = 4
	// DefaultQueueDepth bounds each shard's inbound queue (covering
	// both queued and in-admission alerts).
	DefaultQueueDepth = 256
	// DefaultDeliveryWindow bounds each shard's concurrent channel
	// Sends.
	DefaultDeliveryWindow = 32
	// DefaultDeliveryMaxAttempts is the per-alert delivery attempt cap
	// (1 initial try + retries) before the alert counts as
	// undeliverable.
	DefaultDeliveryMaxAttempts = 4
	// DefaultDeliveryBackoff is the base retry backoff; attempt n waits
	// roughly backoff·2ⁿ⁻¹ with jitter, capped.
	DefaultDeliveryBackoff = time.Millisecond
	// DefaultDeliveryBackoffCap caps the exponential retry backoff.
	DefaultDeliveryBackoffCap = 100 * time.Millisecond
	// DefaultWALCheckpointEvery triggers a WAL checkpoint + segment
	// compaction after this many journal records — large enough that
	// short runs never pay for a checkpoint, small enough that a
	// long-lived hub's disk and restart time stay bounded.
	DefaultWALCheckpointEvery = 65536
	// DefaultQuiesceTimeout bounds how long a graceful shard
	// rejuvenation waits for the shard's admitted work to drain before
	// escalating to a kill+replay restart; it also bounds how long a
	// kill+replay restart waits for the abandoned generation's loop and
	// delivery workers to stop before scanning the WAL.
	DefaultQuiesceTimeout = 5 * time.Second
)

// Fixed sizes: no production caller ever set these, so they are
// constants, not Config fields.
const (
	// DefaultCommitMaxBatch caps WAL records per group commit, and a
	// staged backlog that reaches it commits without waiting out the
	// window.
	DefaultCommitMaxBatch = 1024
	// DefaultLatencyReservoir bounds each latency recorder's sample
	// memory on million-alert runs.
	DefaultLatencyReservoir = 4096
	// DefaultRouteBatch caps how many queued envelopes a shard loop
	// drains and evaluates per wakeup: reject/filter verdicts from one
	// drain stage their WAL DONE records as a single batch and delivery
	// jobs are handed off under one delivery-stage lock acquisition.
	DefaultRouteBatch = 64
	// DefaultAsyncInFlight caps the hub-wide number of unresolved
	// SubmitBatchAsync tickets — the pipelined ingest path's
	// backpressure: an async submitter past the cap blocks until a
	// ticket resolves.
	DefaultAsyncInFlight = 256
	// resolveQueueDepth buffers the commit resolver's inbox; a full
	// inbox backpressures stagers onto the resolver.
	resolveQueueDepth = 128
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

// FaultPoint names a place on the alert path where Config.Fault is
// consulted.
type FaultPoint int

// The fault points, in the order an alert meets them.
const (
	// FaultAfterBatchFsync: a burst's RECV batch is durable — its
	// senders are acknowledged — and none of it is enqueued yet; the next
	// incarnation must cover the burst by replay.
	FaultAfterBatchFsync FaultPoint = iota
	// FaultRoute: the top of a shard loop's routing batch, before any
	// envelope is touched.
	FaultRoute
	// FaultAfterOutboxPut: the guaranteed-tier handoff window — a
	// delivery worker has persisted an exhausted envelope to the outbox
	// and not yet retired the ingest WAL entry, so both logs own the
	// alert; the duplicate on replay is the dedup contract's case.
	FaultAfterOutboxPut
	// FaultBeforeMark: a delivery worker has executed a delivery and not
	// yet marked the alert processed — the paper's crash between routing
	// and marking, inside the asynchronous delivery stage.
	FaultBeforeMark
)

// String names the point for the fault journal.
func (p FaultPoint) String() string {
	switch p {
	case FaultAfterBatchFsync:
		return "between batch fsync and enqueue"
	case FaultRoute:
		return "at the top of a routing batch"
	case FaultAfterOutboxPut:
		return "between outbox put and mark-processed"
	case FaultBeforeMark:
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
	// OnDelivery, when set, observes every delivery-mode execution
	// attempt on the hub's delivery workers: the per-attempt report
	// (block fallback trace) and the attempt's error, nil on success.
	// Both are borrowed from the worker's scratch (core.Scratch) and
	// valid only during the call: copy what must outlive it. Must be
	// safe for concurrent calls.
	OnDelivery func(user string, rep *core.Report, err error)
	// WALPath is the journal base path; required. Every shard stages
	// into the one plog.Log there. New refuses a directory that still
	// holds "<WALPath>.lane<NN>" files (a multi-lane layout this hub no
	// longer reads) instead of opening the base journal beside them.
	WALPath string
	// Shards is the shard-table size; zero means DefaultShards.
	Shards int
	// QueueDepth bounds each shard's inbound queue; zero means
	// DefaultQueueDepth.
	QueueDepth int
	// CommitWindow is the group-commit window's upper bound (wall
	// clock). The commit schedule is adaptive (plog.GroupOptions.Window):
	// an append that ends an idle spell commits immediately, so the
	// window taxes only steady streams. Zero commits as soon as the
	// previous fsync finishes.
	CommitWindow time.Duration
	// WALSegmentBytes caps the WAL's active segment before it rotates;
	// zero means plog.DefaultSegmentBytes (4 MiB).
	WALSegmentBytes int64
	// WALCheckpointEvery triggers a background WAL checkpoint +
	// compaction after this many journal records; zero means
	// DefaultWALCheckpointEvery, negative disables checkpointing.
	WALCheckpointEvery int64
	// RNG seeds the per-shard forked RNGs handed to simulated
	// substrates. Optional.
	RNG *dist.RNG
	// Journal records replay/recovery actions. Optional.
	Journal *faults.Journal
	// DeliveryWindow bounds each shard's concurrent channel Sends; zero
	// means DefaultDeliveryWindow. A delivery holds a slot only while it
	// is calling channels — not while it waits for an acknowledgement or
	// sleeps out a retry backoff (those are bounded by QueueDepth, whose
	// reservation a delivery keeps until it completes). One serializes a
	// shard's Sends.
	DeliveryWindow int
	// DeliveryMaxAttempts caps delivery attempts per alert (initial try
	// plus retries); zero means DefaultDeliveryMaxAttempts.
	DeliveryMaxAttempts int
	// DeliveryBackoff is the base retry backoff (exponential per
	// attempt, jittered); zero means DefaultDeliveryBackoff.
	DeliveryBackoff time.Duration
	// DeliveryBackoffCap caps the exponential backoff; zero means
	// DefaultDeliveryBackoffCap.
	DeliveryBackoffCap time.Duration
	// OutboxPath, when set, opens the guaranteed-tier retry outbox at
	// this journal base path. Guaranteed-tier deliveries that exhaust
	// the in-memory attempt budget are persisted there and redelivered
	// with escalating backoff across restarts; when empty, guaranteed
	// subscriptions degrade to best-effort (the drop is still counted
	// as lost). Optional.
	OutboxPath string
	// OutboxBackoff is the outbox's base per-round redelivery backoff;
	// zero means outbox.DefaultBackoff.
	OutboxBackoff time.Duration
	// OutboxBackoffCap caps the outbox's exponential round backoff;
	// zero means outbox.DefaultBackoffCap.
	OutboxBackoffCap time.Duration
	// OutboxEscalateEvery is how many exhausted outbox rounds an
	// envelope spends per delivery-mode block before escalating to the
	// next block; zero means outbox.DefaultEscalateEvery, negative
	// disables escalation.
	OutboxEscalateEvery int
	// Fault is the hub's one fault-injection seam. When set, it is
	// consulted at each FaultPoint with the shard concerned (-1 at
	// FaultAfterBatchFsync, whose burst may span shards) and the kill
	// signal of what is running there — the shard generation's, or the
	// hub's. A true reply kills the whole hub at that point, once,
	// journaled; a call that blocks wedges the caller exactly where a
	// stuck stage would, and watching killed lets the wedge clear when a
	// supervisor kills the generation. Must be safe for concurrent
	// calls. Optional.
	Fault func(p FaultPoint, shard int, killed <-chan struct{}) (crash bool)
	// QuiesceTimeout bounds a graceful rejuvenation's drain wait (after
	// which it escalates to kill+replay) and a restart's wait for the
	// abandoned generation to stop (after which the WAL scan proceeds
	// anyway). Zero means DefaultQuiesceTimeout.
	QuiesceTimeout time.Duration
}

// Buddy is one hosted tenant: the per-user MyAlertBuddy pipeline
// rebuilt inside the hub. Configure its stages through Pipeline(), and
// optionally attach a delivery profile (addresses + modes) with
// SetProfile + Subscribe to make the hub execute the tenant's
// personalized delivery modes instead of the flat substrate.
type Buddy struct {
	user string
	pipe *mab.Pipeline

	// Delivery state is copy-on-write: mutators rebuild a buddyState
	// and swap it in, so plan() on the routing hot path reads the
	// profile and subscriptions without any lock.
	mu    sync.Mutex // serializes SetProfile/Subscribe
	state atomic.Pointer[buddyState]

	routed, rejected, filtered, delivered atomic.Int64
}

// buddyState is one immutable snapshot of a tenant's delivery
// configuration.
type buddyState struct {
	profile *core.Profile
	subs    map[string]string // routing category → delivery-mode name
	// tiers holds per-category QoS overrides (SubscribeTier);
	// categories without an entry use defaultTier.
	tiers       map[string]core.Tier
	defaultTier core.Tier
}

// clone copies the snapshot for a mutator, sharing the immutable maps
// the mutation does not touch.
func (s *buddyState) clone() *buddyState {
	if s == nil {
		return &buddyState{}
	}
	c := *s
	return &c
}

// User returns the tenant's user ID.
func (b *Buddy) User() string { return b.user }

// Pipeline returns the tenant's classify→aggregate→filter stages.
func (b *Buddy) Pipeline() *mab.Pipeline { return b.pipe }

// SetProfile attaches the tenant's delivery profile. Alerts routed to
// a category the tenant subscribed (Subscribe) execute that
// subscription's delivery mode — block fallback, ack timeouts — on the
// hub's delivery workers; all other alerts use the flat substrate.
func (b *Buddy) SetProfile(p *core.Profile) {
	b.mu.Lock()
	next := b.state.Load().clone() // maps are immutable once published; safe to share
	next.profile = p
	b.state.Store(next)
	b.mu.Unlock()
}

// Profile returns the tenant's delivery profile (nil when flat).
func (b *Buddy) Profile() *core.Profile {
	if s := b.state.Load(); s != nil {
		return s.profile
	}
	return nil
}

// Subscribe maps a routing category to one of the profile's delivery
// modes, mirroring Store.Subscribe on the hosted path. The profile
// must be set and must define the mode. The subscription's QoS tier is
// the tenant's default (SetTier); SubscribeTier overrides it
// per-category.
func (b *Buddy) Subscribe(category, mode string) error {
	return b.subscribe(category, mode, nil)
}

// SubscribeTier is Subscribe with an explicit per-category delivery
// QoS tier, mirroring Store.SubscribeTier on the hosted path.
func (b *Buddy) SubscribeTier(category, mode string, tier core.Tier) error {
	if !tier.Valid() {
		return fmt.Errorf("hub: subscribe %s/%s: invalid tier %d", b.user, category, tier)
	}
	return b.subscribe(category, mode, &tier)
}

func (b *Buddy) subscribe(category, mode string, tier *core.Tier) error {
	if category == "" {
		return errors.New("hub: empty category")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.state.Load()
	if cur == nil || cur.profile == nil {
		return fmt.Errorf("hub: subscribe %s/%s: tenant has no profile", b.user, category)
	}
	if _, err := cur.profile.Mode(mode); err != nil {
		return err
	}
	next := cur.clone()
	next.subs = make(map[string]string, len(cur.subs)+1)
	for k, v := range cur.subs {
		next.subs[k] = v
	}
	next.subs[category] = mode
	if tier != nil {
		next.tiers = make(map[string]core.Tier, len(cur.tiers)+1)
		for k, v := range cur.tiers {
			next.tiers[k] = v
		}
		next.tiers[category] = *tier
	}
	b.state.Store(next)
	return nil
}

// SetTier sets the tenant's default delivery QoS tier: the tier of
// every category without a SubscribeTier override, including alerts
// that route through the flat substrate. The zero default is
// TierBestEffort — the historical semantics.
func (b *Buddy) SetTier(tier core.Tier) error {
	if !tier.Valid() {
		return fmt.Errorf("hub: tenant %s: invalid tier %d", b.user, tier)
	}
	b.mu.Lock()
	next := b.state.Load().clone()
	next.defaultTier = tier
	b.state.Store(next)
	b.mu.Unlock()
	return nil
}

// DefaultTier returns the tenant's default delivery QoS tier.
func (b *Buddy) DefaultTier() core.Tier {
	if s := b.state.Load(); s != nil {
		return s.defaultTier
	}
	return core.TierBestEffort
}

// Tier returns the delivery QoS tier alerts routed to category carry:
// the category's SubscribeTier override when present, else the
// tenant's default.
func (b *Buddy) Tier(category string) core.Tier {
	s := b.state.Load()
	if s == nil {
		return core.TierBestEffort
	}
	if t, ok := s.tiers[category]; ok {
		return t
	}
	return s.defaultTier
}

// Routed returns how many alerts passed the tenant's pipeline.
func (b *Buddy) Routed() int64 { return b.routed.Load() }

// Delivered returns how many alerts the sink accepted for the tenant.
func (b *Buddy) Delivered() int64 { return b.delivered.Load() }

// Hub hosts N per-user buddies across K shards over one group-commit
// WAL. It is safe for concurrent use.
type Hub struct {
	cfg    Config
	wal    *plog.Log
	shards []*shard
	// outbox is the guaranteed-tier retry outbox; nil when
	// Config.OutboxPath is empty.
	outbox *outbox.Outbox

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
	started bool

	// Pipelined ingest plumbing: one FIFO resolver goroutine waits out
	// staged bursts' commits in staging order and only then enqueues
	// them to their shards — the deferred enqueue that keeps
	// admission→log→ack→enqueue ordering intact when submitters hold
	// several batches in flight.
	resolveq chan *Ticket
	// asyncSem bounds unresolved SubmitBatchAsync tickets
	// (DefaultAsyncInFlight); ingestPending counts staged-but-unresolved
	// tickets of either path so Drain can wait out deferred enqueues.
	asyncSem      chan struct{}
	ingestPending atomic.Int64

	accepting atomic.Bool
	killed    chan struct{}
	killOnce  sync.Once
	crashOnce sync.Once
	stopOnce  sync.Once
	stopped   chan struct{}
	closeErr  error

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

	latency *metrics.Recorder
	// Per-stage latency split: time in the shard inbound queue, pipeline
	// evaluation on the shard loop, and handoff → delivery completion
	// (chain/window wait + sink attempts + backoff).
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
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DeliveryWindow <= 0 {
		cfg.DeliveryWindow = DefaultDeliveryWindow
	}
	if cfg.DeliveryMaxAttempts <= 0 {
		cfg.DeliveryMaxAttempts = DefaultDeliveryMaxAttempts
	}
	if cfg.DeliveryBackoff <= 0 {
		cfg.DeliveryBackoff = DefaultDeliveryBackoff
	}
	if cfg.DeliveryBackoffCap <= 0 {
		cfg.DeliveryBackoffCap = DefaultDeliveryBackoffCap
	}
	if cfg.DeliveryBackoffCap < cfg.DeliveryBackoff {
		cfg.DeliveryBackoffCap = cfg.DeliveryBackoff
	}
	if cfg.RNG == nil {
		cfg.RNG = dist.NewRNG(1)
	}
	if cfg.QuiesceTimeout <= 0 {
		cfg.QuiesceTimeout = DefaultQuiesceTimeout
	}
	switch {
	case cfg.WALCheckpointEvery == 0:
		cfg.WALCheckpointEvery = DefaultWALCheckpointEvery
	case cfg.WALCheckpointEvery < 0:
		cfg.WALCheckpointEvery = 0 // disable background compaction
	}
	// A multi-lane directory is refused before anything is created or
	// opened: plog.Open would read the base journal and silently leave
	// the lanes' unprocessed records behind.
	if stale, err := plog.FirstLaneFile(cfg.WALPath); err != nil {
		return nil, fmt.Errorf("hub: opening WAL: %w", err)
	} else if stale != "" {
		return nil, fmt.Errorf("hub: opening WAL: %s belongs to a multi-lane journal this hub no longer reads; "+
			"drain it with the release that wrote it, or remove the lane files to abandon their records", stale)
	}
	wal, err := plog.OpenGroup(cfg.WALPath, plog.GroupOptions{
		Window:   cfg.CommitWindow,
		MaxBatch: DefaultCommitMaxBatch,
		Log: plog.Options{
			SegmentBytes:    cfg.WALSegmentBytes,
			CheckpointEvery: cfg.WALCheckpointEvery,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("hub: opening WAL: %w", err)
	}
	h := &Hub{
		cfg:        cfg,
		wal:        wal,
		users:      make(map[string]*Buddy),
		killed:     make(chan struct{}),
		stopped:    make(chan struct{}),
		counters:   &metrics.CounterSet{},
		latency:    metrics.NewReservoir(DefaultLatencyReservoir),
		queueWait:  metrics.NewReservoir(DefaultLatencyReservoir),
		routeLat:   metrics.NewReservoir(DefaultLatencyReservoir),
		deliverLat: metrics.NewReservoir(DefaultLatencyReservoir),
		admitLat:   metrics.NewReservoir(DefaultLatencyReservoir),
		resolveq:   make(chan *Ticket, resolveQueueDepth),
		asyncSem:   make(chan struct{}, DefaultAsyncInFlight),
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
		// The shard's generation 1 — queue, loop latches, delivery stage
		// — is built by Start; the shard itself carries only what
		// survives restarts.
		h.shards[i] = newShard(i, cfg.QueueDepth, cfg.RNG.Fork(fmt.Sprintf("hub-shard-%d", i)))
	}
	if cfg.OutboxPath != "" {
		ob, err := outbox.Open(outbox.Options{
			Clock:         cfg.Clock,
			Path:          cfg.OutboxPath,
			Backoff:       cfg.OutboxBackoff,
			BackoffCap:    cfg.OutboxBackoffCap,
			EscalateEvery: cfg.OutboxEscalateEvery,
			Journal:       cfg.Journal,
		})
		if err != nil {
			_ = wal.Close()
			return nil, err
		}
		h.outbox = ob
	}
	return h, nil
}

// Outbox returns the guaranteed-tier retry outbox, nil when the hub
// was configured without one.
func (h *Hub) Outbox() *outbox.Outbox { return h.outbox }

// Executor returns the hub's shared mode executor.
func (h *Hub) Executor() *core.Executor { return h.exec }

// Channels returns the hub's delivery channel registry. Channels may
// be registered (or swapped) at run time; deliveries in flight keep
// the channel they looked up.
func (h *Hub) Channels() *core.Channels { return h.channels }

// HandleIncoming feeds an inbound IM to the shared ack table. If the
// message acknowledges an IM sent by a hosted delivery in flight, the
// waiting block resolves and HandleIncoming reports true (the message
// is consumed). Wire the hub's IM endpoint receive callback here.
func (h *Hub) HandleIncoming(msg im.Message) bool {
	return h.acks.HandleIncoming(msg)
}

// plan resolves which registry and delivery mode one routed alert
// executes — the tenant's subscribed mode for the alert's category
// when the tenant carries a profile, else the hub's synthesized flat
// mode (one pass through the addr.TypeSink substrate channel) — plus the
// QoS tier the delivery runs under. The mode is the profile's own
// stored copy, shared read-only with every other delivery of it
// (Config.AckTimeout reaches the executor through deliveryContext, not
// through the mode). Reads the tenant's copy-on-write state snapshot —
// no locks of the hub's, no allocation.
func (h *Hub) plan(b *Buddy, category string) (*addr.Registry, *dmode.Mode, core.Tier) {
	s := b.state.Load()
	if s == nil {
		return h.flatReg, h.flatMode, core.TierBestEffort
	}
	tier, hasTier := s.tiers[category]
	if !hasTier {
		tier = s.defaultTier
	}
	if s.profile == nil {
		return h.flatReg, h.flatMode, tier
	}
	p := s.profile
	modeName, subscribed := s.subs[category]
	if !subscribed {
		return h.flatReg, h.flatMode, tier
	}
	mode, ok := p.SharedMode(modeName)
	if !ok {
		// The mode was deleted after Subscribe; deliver flat rather
		// than losing the alert.
		return h.flatReg, h.flatMode, tier
	}
	return p.Addresses(), mode, tier
}

// deliveryContext is the executor context for one of user's deliveries:
// hosting identity plus Config.AckTimeout as the default block timeout.
func (h *Hub) deliveryContext(user string, shard int) core.DeliveryContext {
	return core.DeliveryContext{User: user, Shard: shard, BlockTimeout: h.cfg.AckTimeout}
}

// AddUser registers a tenant. The returned Buddy's pipeline accepts no
// sources until configured. Tenants may be added before or after Start.
func (h *Hub) AddUser(user string) (*Buddy, error) {
	if user == "" {
		return nil, errors.New("hub: empty user")
	}
	if strings.Contains(user, keySep) {
		return nil, fmt.Errorf("hub: user %q contains reserved separator", user)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.users[user]; ok {
		return nil, fmt.Errorf("hub: user %q already hosted", user)
	}
	b := &Buddy{user: user, pipe: mab.NewPipeline()}
	h.users[user] = b
	return b, nil
}

// Users returns the number of hosted tenants.
func (h *Hub) Users() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.users)
}

// buddy looks up a tenant.
func (h *Hub) buddy(user string) (*Buddy, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	b, ok := h.users[user]
	return b, ok
}

// shardOf maps a user ID onto its shard.
func (h *Hub) shardOf(user string) *shard {
	f := fnv.New32a()
	f.Write([]byte(user))
	return h.shards[int(f.Sum32())%len(h.shards)]
}

// Start launches the shard loops, starts the outbox redelivery loop
// over the envelopes it recovered, replays every user's unprocessed
// WAL entries through their rebuilt buddies, and only then opens
// admission. Recovery ordering: the outbox starts before the WAL
// replay is enqueued — an alert that crashed inside the handoff window
// is owed by both logs, and scheduling the outbox's (older, already
// attempt-exhausted) copy first means its redelivery is never starved
// behind the replayed ingest backlog. Both recovery streams run before
// admission opens; their duplicates are the dedup contract's case.
func (h *Hub) Start() error {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return errors.New("hub: already started")
	}
	h.started = true
	h.mu.Unlock()
	for _, sh := range h.shards {
		if !h.publishGen(sh, h.openGen(sh, 1, nil), false) {
			return ErrNotAccepting
		}
		sh.setState(ShardRunning)
	}
	if h.outbox != nil {
		if err := h.outbox.Start(h.redeliver); err != nil {
			return err
		}
	}
	h.replay()
	go h.resolver()
	h.accepting.Store(true)
	return nil
}

// redeliver executes one outbox redelivery round: re-resolve the
// tenant's plan (the subscription may have changed since the envelope
// was persisted), slice off the blocks the envelope's escalation
// offset has advanced past, and run the remainder through the shared
// mode executor. Reports the plan's full block count so the outbox
// knows the escalation ceiling. A tenant that is no longer hosted
// retires the envelope as undeliverable (outbox.ErrDrop).
func (h *Hub) redeliver(e *outbox.Entry) (int, error) {
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
	rep, err := h.exec.DeliverAs(h.deliveryContext(e.User, h.shardOf(e.User).id), e.Alert, reg, mode)
	if f := h.cfg.OnDelivery; f != nil {
		f(e.User, rep, err)
	}
	if err == nil {
		b.delivered.Add(1)
		h.ctr.delivered.Add1()
		h.ctr.tierDelivered[core.TierGuaranteed].Add1()
		h.deliveredViaCounterFor(rep.DeliveredType()).Add1()
	}
	return blocks, err
}

// deliveredViaCounterFor resolves the delivered-via counter for a
// channel type: a map hit for the standard types (no per-delivery name
// building), CounterSet's lock-free lookup for custom ones.
func (h *Hub) deliveredViaCounterFor(t addr.Type) *metrics.Counter {
	if via, ok := h.deliveredVia[t]; ok {
		return via
	}
	return h.counters.Counter(deliveredViaCounter(t))
}

// replayRec is one unprocessed WAL record decoded for re-enqueue.
type replayRec struct {
	b   *Buddy
	a   alert.Alert
	key string
}

// replayable decodes one unprocessed WAL record for re-enqueue. A
// record that can never be routed — no user in its key, a user no
// longer hosted, an unparsable payload — is tombstoned, journaled, and
// counted, and ok is false. only restricts the scan to one shard
// (RestartShard): other shards' records are skipped untouched, as is a
// malformed key, whose shard is unknown — the next process start
// (only == nil) tombstones it.
func (h *Hub) replayable(rec plog.Record, only *shard) (r replayRec, ok bool) {
	tombstone := func(format string, args ...any) {
		h.journal(faults.KindReplay, "tombstoning "+format, args...)
		_ = h.wal.MarkProcessed(rec.Key, h.cfg.Clock.Now())
		h.counters.Add1("tombstoned")
	}
	user, _, keyed := strings.Cut(rec.Key, keySep)
	if only != nil && (!keyed || h.shardOf(user) != only) {
		return r, false
	}
	if !keyed {
		tombstone("WAL entry with malformed key %q", rec.Key)
		return r, false
	}
	b, hosted := h.buddy(user)
	if !hosted {
		tombstone("WAL entry for unhosted user %q", user)
		return r, false
	}
	r = replayRec{b: b, key: rec.Key}
	if err := r.a.UnmarshalText(rec.Payload); err != nil {
		tombstone("unparsable WAL entry %q: %v", rec.Key, err)
		return r, false
	}
	return r, true
}

// replay re-enqueues the WAL's unprocessed entries in log order (exact
// per-user order). Runs before admission opens, so replayed alerts are
// routed ahead of new traffic.
func (h *Hub) replay() {
	for _, rec := range h.wal.Unprocessed() {
		if r, ok := h.replayable(rec, nil); ok {
			h.requeue(h.shardOf(r.b.user), &r)
		}
	}
}

// requeue admits one replayed record to sh's current generation, whose
// loop must be live and draining — so the blocking reservation cannot
// wedge — as it is at startup and after a restart's generation swap.
func (h *Hub) requeue(sh *shard, r *replayRec) {
	h.journal(faults.KindReplay, "shard %d: replaying unprocessed alert %s for %s", sh.id, r.a.DedupKey(), r.b.user)
	h.counters.Add1("replayed")
	sh.reserveBlocking()
	env := getEnvelope()
	env.fill(r.b, &r.a, r.key, h.cfg.Clock.Now())
	sh.enqueue(env, true)
}

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
// set, the pending entries, the per-shard admission counts and the
// journal entries handed to the WAL (which copies what it keeps while
// staging). Pooled, so a burst allocates only its key slab and what its
// Ticket owns.
type submitScratch struct {
	keys    []byte
	seen    map[string]struct{}
	pending []submitPending
	counts  []int64
	recs    []plog.BatchEntry
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
	sem     bool // holds an async backpressure slot until resolved
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
// several tickets; DefaultAsyncInFlight bounds the hub-wide total, and
// a submitter past the bound blocks here until a ticket resolves.
//
// Entries that fail before staging (invalid alert, unknown user,
// overloaded shard) are reported in the ticket's results exactly as
// SubmitBatch reports them. A commit whose write or fsync fails NACKs
// every entry the burst staged.
func (h *Hub) SubmitBatchAsync(subs []Submission, onCommitted func(errs []error)) *Ticket {
	if !h.accepting.Load() {
		return h.rejectedTicket(subs, onCommitted)
	}
	h.asyncSem <- struct{}{}
	if !h.accepting.Load() {
		<-h.asyncSem
		return h.rejectedTicket(subs, onCommitted)
	}
	return h.submit(subs, onCommitted, true)
}

// rejectedTicket resolves a whole burst with ErrNotAccepting without
// touching the ingest path.
func (h *Hub) rejectedTicket(subs []Submission, onCommitted func([]error)) *Ticket {
	t := &Ticket{errs: make([]error, len(subs)), done: make(chan struct{}), onCommitted: onCommitted}
	for i := range t.errs {
		t.errs[i] = ErrNotAccepting
	}
	h.finishTicket(t)
	return t
}

// SubmitBatch offers a burst of alerts, amortizing the ingest path's
// fixed costs: one validation/dedup pass, bulk admission reservation
// per shard, one marshal pass, and a single group-commit WAL join for
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
	if !h.accepting.Load() {
		errs := make([]error, len(subs))
		for i := range errs {
			errs[i] = ErrNotAccepting
		}
		return errs
	}
	return h.submit(subs, nil, false).Wait()
}

// submit is the shared staging half of SubmitBatch/SubmitBatchAsync:
// stage the burst and hand its Ticket to the resolver, which waits out
// commits in staging order and completes the ack + deferred enqueue. A
// burst that staged nothing resolves synchronously here.
func (h *Hub) submit(subs []Submission, onCommitted func([]error), sem bool) *Ticket {
	errs := make([]error, len(subs))
	t := &Ticket{errs: errs, done: make(chan struct{}), onCommitted: onCommitted, sem: sem}
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
// marshals the admitted entries, and stages their RECV records into the
// WAL's group commit as one unit, leaving the commit and the staged
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
	// Pass 3: marshal the admitted entries into the journal entries the
	// WAL stages plus the parallel ticketEntry bookkeeping the resolver
	// needs (duplicates ride along as idempotent no-ops so their re-ack
	// waits for the original's durability).
	recs := scr.recs
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
				Depth:      h.cfg.QueueDepth,
				RetryAfter: p.sh.retryHint(now, h.cfg.CommitWindow),
			}
			continue
		}
		granted[p.sh.id]--
		// Fill a pooled envelope and encode its wire form into
		// envelope-owned storage; the group log copies the payload
		// synchronously while staging, so the buffer is reusable the
		// moment LogReceivedBatchStart returns.
		env := getEnvelope()
		env.fill(p.buddy, p.a, p.key, now)
		payload, err := env.alert.AppendWire(env.payload[:0])
		if err != nil {
			putEnvelope(env)
			p.sh.release()
			h.ctr.rejectedInvalid.Add1()
			errs[p.idx] = err
			continue
		}
		env.payload = payload
		recs = append(recs, plog.BatchEntry{Key: p.key, Payload: payload, At: now})
		entries = append(entries, ticketEntry{idx: p.idx, buddy: p.buddy, sh: p.sh, env: env})
	}
	scr.recs = recs
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
	if h.fault(FaultAfterBatchFsync, -1, h.killed) {
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
// bursts that actually staged durability work), release the async
// backpressure slot, wake waiters, and run the commit callback.
func (h *Hub) finishTicket(t *Ticket) {
	if t.entries != nil {
		h.admitLat.Observe(h.cfg.Clock.Since(t.start))
		h.ingestPending.Add(-1)
	}
	if t.sem {
		<-h.asyncSem
	}
	close(t.done)
	if t.onCommitted != nil {
		t.onCommitted(t.errs)
	}
}

// openGen builds one shard generation: fresh queue and latches plus a
// fresh delivery stage bound to the generation's kill signal. The
// caller hands it to publishGen.
func (h *Hub) openGen(sh *shard, n int64, suppress map[string]struct{}) *shardGen {
	g := sh.newGen(n, suppress)
	g.delivery = newDeliveryStage(h, sh, g.killed)
	return g
}

// publishGen makes next the shard's current generation and starts its
// loop; retire also closes the outgoing generation's intake under the
// same lock, so no enqueue can land between the close and the swap.
// The hub's kill is re-checked under sh.mu, which Kill's killCurrent
// takes to read cur: either Kill finds next there and kills it, or the
// kill is seen here — then nothing is published, the shard is Stopped
// and publishGen reports false. The caller holds sh.lifeMu, or is
// Start.
func (h *Hub) publishGen(sh *shard, next *shardGen, retire bool) bool {
	sh.mu.Lock()
	select {
	case <-h.killed:
		sh.mu.Unlock()
		sh.setState(ShardStopped)
		return false
	default:
	}
	if retire {
		sh.cur.closed = true
		close(sh.cur.q)
	}
	sh.cur = next
	sh.mu.Unlock()
	sh.gen.Store(next.n)
	sh.beat(h.cfg.Clock.Now())
	go h.runLoop(sh, next)
	return true
}

// runLoop is one shard generation's event loop: drain up to
// DefaultRouteBatch queued envelopes per wakeup and route them as a
// batch, so WAL DONE staging and delivery handoff amortize their lock
// round-trips across the drained burst. The loop owns its generation's
// queue — never the shard's current one — so a restart's generation
// swap can never redirect a live loop onto a queue it does not own.
func (h *Hub) runLoop(sh *shard, g *shardGen) {
	defer close(g.done)
	var (
		batch   = make([]*envelope, 0, DefaultRouteBatch)
		scratch routeScratch
	)
	for {
		select {
		case <-g.killed:
			return
		case env, ok := <-g.q:
			if !ok {
				return
			}
			// A kill may have landed while this envelope was ready;
			// honor it before touching more work so a killed generation
			// stops deterministically.
			select {
			case <-g.killed:
				return
			default:
			}
			batch = append(batch[:0], env)
			drained := true
			for drained && len(batch) < DefaultRouteBatch {
				select {
				case env, ok := <-g.q:
					if !ok {
						drained = false // queue closed: route what we have, then exit
						break
					}
					batch = append(batch, env)
				default:
					drained = false
				}
			}
			h.processBatch(sh, g, batch, &scratch)
		}
	}
}

// routeScratch is a shard loop's reusable batch-routing buffers.
type routeScratch struct {
	finished []*envelope // reject/filter verdicts awaiting a batched DONE
	keys     []string    // finished WAL keys, parallel to finished
	jobs     []*envelope // routed envelopes awaiting delivery handoff
}

// processBatch is the routing stage: evaluate each envelope's tenant
// pipeline on the shard loop, then complete the batch's bookkeeping in
// bulk — reject/filter verdicts stage their WAL DONE records as one
// batch (one group-lock round-trip) and routed alerts are handed to
// the delivery stage under a single submit lock acquisition. The shard
// loop never calls into delivery substrates, so a slow delivery stalls
// only its own user's chain — not every tenant hashed to the shard.
//
// The fault hook and the kill check run before any envelope is
// touched: a generation that wedges in the hook and is killed while
// parked abandons the whole batch unprocessed — nothing marked,
// nothing delivered — so the batch replays exactly once through the
// replacement generation, never half-through both.
func (h *Hub) processBatch(sh *shard, g *shardGen, envs []*envelope, scr *routeScratch) {
	h.fault(FaultRoute, sh.id, g.killed)
	select {
	case <-g.killed:
		return // abandoned: the WAL still owns every envelope in the batch
	default:
	}
	scr.finished = scr.finished[:0]
	scr.keys = scr.keys[:0]
	scr.jobs = scr.jobs[:0]
	for _, env := range envs {
		dequeued := h.cfg.Clock.Now()
		h.queueWait.Observe(dequeued.Sub(env.at))
		b := env.buddy
		category, verdict := b.pipe.Evaluate(&env.alert, dequeued)
		h.routeLat.Observe(h.cfg.Clock.Since(dequeued))
		switch verdict {
		case mab.VerdictReject:
			b.rejected.Add(1)
			h.ctr.rejected.Add1()
			scr.finished = append(scr.finished, env)
			scr.keys = append(scr.keys, env.key)
		case mab.VerdictFilter:
			b.filtered.Add(1)
			h.ctr.filtered.Add1()
			scr.finished = append(scr.finished, env)
			scr.keys = append(scr.keys, env.key)
		default:
			// Annotate the envelope's inline alert in place: the routed
			// category replaces the submit-time keywords, backed by the
			// envelope-owned one-element array — no per-alert slice.
			env.kw[0] = category
			env.alert.Keywords = env.kw[:1]
			env.category = category
			env.handed = h.cfg.Clock.Now()
			b.routed.Add(1)
			h.ctr.routed.Add1()
			scr.jobs = append(scr.jobs, env)
		}
	}
	if len(scr.finished) > 0 {
		h.finishBatch(sh, scr.finished, scr.keys)
		clear(scr.keys) // an idle loop's scratch must not pin key slabs
	}
	if len(scr.jobs) > 0 {
		g.delivery.submitBatch(scr.jobs)
	}
	sh.beat(h.cfg.Clock.Now())
}

// finishBatch durably completes alerts that need no delivery: stage
// every WAL DONE record into the next group commit as one batch and
// release the admission slots. Losing an unflushed DONE only causes a
// replay, which the dedup contract covers; Drain/Close still flush
// every staged record.
func (h *Hub) finishBatch(sh *shard, envs []*envelope, keys []string) {
	markErrs := h.wal.MarkProcessedBatchAsync(keys, h.cfg.Clock.Now())
	done := h.cfg.Clock.Now()
	for i, env := range envs {
		if markErrs != nil && markErrs[i] != nil && !errors.Is(markErrs[i], plog.ErrClosed) {
			h.ctr.markFailed.Add1()
		}
		h.latency.Observe(done.Sub(env.at))
		sh.release()
		putEnvelope(env) // DONE staged, slot released: recycle
	}
}

// Kill abruptly terminates the hub, simulating a crash: admission stops
// immediately, shard loops abandon their queues, and the delivery stage
// abandons its in-flight window (delivered-but-unmarked alerts stay
// unprocessed in the WAL for the next incarnation to replay — the
// documented duplicate of the dedup contract). Teardown completes
// asynchronously — wait on Stopped() before reopening the WAL path.
// Kill is safe to call from inside a shard loop or delivery worker (the
// fault-injection path does exactly that).
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

// Stopped is closed once the hub has fully shut down (loops exited, WAL
// flushed and closed).
func (h *Hub) Stopped() <-chan struct{} { return h.stopped }

// shutdown waits for the loops, quiesces the delivery stages (unless
// killed, in which case in-flight deliveries are abandoned), and closes
// the WAL. Runs at most once.
func (h *Hub) shutdown() {
	h.stopOnce.Do(func() {
		// Wait for each shard's CURRENT generation loop — not a global
		// WaitGroup over every loop ever started — so a generation
		// abandoned by an earlier targeted restart (possibly still
		// wedged) cannot block the whole process's shutdown.
		for _, sh := range h.shards {
			if g := sh.current(); g != nil {
				<-g.done
			}
		}
		var outboxErr error
		select {
		case <-h.killed:
			// Crash semantics: do not wait for delivery workers — they
			// observe the kill and abandon; the WAL replays their undone
			// entries. A worker racing past the kill check hits the
			// closed WAL and ErrClosed is tolerated. The outbox journal
			// closes the same way: a redelivery round racing its mark
			// replays next incarnation.
			if h.outbox != nil {
				h.outbox.Kill()
			}
		default:
			// Graceful drain: the shard loops have exited, so no new
			// jobs can reach the stages; wait for every in-flight and
			// chained delivery to complete and stage its DONE record
			// (guaranteed-tier exhaustions hand off to the outbox, so
			// the stages must quiesce before the outbox closes). Still-
			// pending envelopes stay durable for the next incarnation.
			for _, sh := range h.shards {
				if g := sh.current(); g != nil {
					g.delivery.quiesce()
				}
			}
			if h.outbox != nil {
				outboxErr = h.outbox.Close()
			}
		}
		h.closeErr = errors.Join(h.wal.Close(), outboxErr)
		close(h.stopped)
	})
}

// Drain gracefully shuts the hub down: admission stops with
// ErrNotAccepting, every shard finishes its queue, the delivery stages
// complete their in-flight and chained deliveries, and the WAL is
// flushed and closed. Taking each shard's lifecycle lock first means a
// restart or rejuvenation in flight finishes (or aborts) before its
// shard is closed — Drain never tears a generation swap in half.
func (h *Hub) Drain() error {
	h.accepting.Store(false)
	// Quiesce the async ingest pipeline: tickets already admitted keep
	// their ordering contract (commit → ack → enqueue), so wait for the
	// resolver to retire every outstanding burst before closing
	// shard intake. Bounded — a wedged WAL resolves tickets with errors
	// on Close below anyway.
	deadline := time.Now().Add(h.cfg.QuiesceTimeout)
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
// their usual retry hint. reason lands in the fault journal.
func (h *Hub) RestartShard(id int, reason string) error {
	sh, err := h.shardByID(id)
	if err != nil {
		return err
	}
	sh.lifeMu.Lock()
	defer sh.lifeMu.Unlock()
	return h.restartLocked(sh, reason)
}

// restartLocked is the kill+replay restart; the caller holds
// sh.lifeMu. Ordering is load-bearing:
//
//  1. Close admission (state Restarting) and kill the old generation.
//  2. Wait (bounded) for the old loop and delivery workers to stop, so
//     a straggler cannot mark a record processed after the scan below
//     decided to replay it.
//  3. Scan the WAL for the shard's unprocessed records. The scan also
//     becomes the new generation's suppression set: a submitter that
//     reserved before the kill and enqueues after the swap would
//     otherwise double-route a record the replay owns.
//  4. Publish the new generation and start its loop, reset the
//     admission gauge (abandoned reservations died with the old
//     generation; nothing can reserve until step 5).
//  5. Re-enqueue the backlog, then reopen admission.
func (h *Hub) restartLocked(sh *shard, reason string) error {
	select {
	case <-h.killed:
		return ErrNotAccepting
	default:
	}
	if st := sh.State(); st != ShardRunning && st != ShardQuiescing {
		return fmt.Errorf("hub: shard %d not restartable in state %s", sh.id, st)
	}
	sh.setState(ShardRestarting)
	old := sh.current()
	old.kill()
	h.journal(faults.KindDaemonRestart, "shard %d: killing generation %d: %s", sh.id, old.n, reason)

	bounded := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		case <-time.After(h.cfg.QuiesceTimeout):
			return false
		}
	}
	loopStopped := bounded(old.done)
	workers := make(chan struct{})
	go func() { old.delivery.quiesce(); close(workers) }()
	workersStopped := bounded(workers)
	if !loopStopped || !workersStopped {
		// A truly stuck goroutine (blocked inside a pipeline stage or a
		// delivery substrate, deaf to the kill) is abandoned for good.
		// If it later completes and marks a record the scan already
		// replayed, the downstream timestamp dedup absorbs the
		// duplicate — the documented contract for every crash window.
		h.journal(faults.KindUnrecovered,
			"shard %d: generation %d did not stop within %v (loop stopped: %v, workers stopped: %v); replaying anyway",
			sh.id, old.n, h.cfg.QuiesceTimeout, loopStopped, workersStopped)
	}

	var backlog []replayRec
	suppress := make(map[string]struct{})
	for _, rec := range h.wal.Unprocessed() {
		if r, ok := h.replayable(rec, sh); ok {
			suppress[r.key] = struct{}{}
			backlog = append(backlog, r)
		}
	}

	next := h.openGen(sh, old.n+1, suppress)
	if !h.publishGen(sh, next, false) {
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
	h.journal(faults.KindDaemonRestart, "shard %d: restarted as generation %d (%d replayed)", sh.id, next.n, len(backlog))
	return nil
}

// RejuvenateShard gracefully recycles shard id: admission closes, the
// admitted work drains to zero, and a fresh generation — new queue,
// new delivery stage, new timer wheel — takes over with no replay and
// no duplicate risk. Because nothing is admitted mid-swap, every
// envelope completes in its original admission order, so per-user
// delivery order is preserved exactly. A quiesce that exceeds
// Config.QuiesceTimeout escalates to the kill+replay restart.
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
	sh.setState(ShardQuiescing)
	// depth counts queued + in-delivery + mid-admission work, and
	// Quiescing blocks new reservations, so zero means the shard is
	// fully idle — nothing in the queue, no delivery in flight, no
	// submitter between reservation and enqueue.
	deadline := time.Now().Add(h.cfg.QuiesceTimeout)
	for sh.depth.Load() > 0 {
		if time.Now().After(deadline) {
			h.journal(faults.KindRejuvenation,
				"shard %d: quiesce timed out (depth %d); escalating to kill+replay",
				sh.id, sh.depth.Load())
			return h.restartLocked(sh, "rejuvenation quiesce timeout")
		}
		time.Sleep(200 * time.Microsecond)
	}
	old := sh.current()
	next := h.openGen(sh, old.n+1, nil)
	if !h.publishGen(sh, next, true) {
		return ErrNotAccepting
	}
	// The old loop drains its empty queue and exits; its delivery stage
	// is already idle. Retiring both before reopening admission keeps
	// "one generation with work per shard" unconditional on this path.
	<-old.done
	old.delivery.quiesce()
	sh.rejuvenations.Add(1)
	sh.setState(ShardRunning)
	h.journal(faults.KindRejuvenation, "shard %d: rejuvenated as generation %d", sh.id, next.n)
	return nil
}

// RejuvenateAll recycles every shard one at a time — rolling
// rejuvenation under live traffic: at most one shard is quiescing at
// any moment, so the hub never loses more than one shard's worth of
// admission capacity.
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

// ShardCount returns the shard-table size.
func (h *Hub) ShardCount() int { return len(h.shards) }

// ShardHealth returns shard id's supervision snapshot. Reads atomics
// only — safe to call against a wedged shard.
func (h *Hub) ShardHealth(id int) (Health, error) {
	sh, err := h.shardByID(id)
	if err != nil {
		return Health{}, err
	}
	return sh.health(), nil
}

// Healths snapshots every shard's supervision state (atomics only).
func (h *Hub) Healths() []Health {
	out := make([]Health, len(h.shards))
	for i, sh := range h.shards {
		out[i] = sh.health()
	}
	return out
}

// WALBacklog returns the WAL's live not-yet-processed record count —
// the replay debt a restart would face right now.
func (h *Hub) WALBacklog() int { return h.wal.Pending() }

// RemoveUser unregisters a tenant. Alerts already admitted keep their
// buddy reference and finish normally; later submissions fail with
// ErrUnknownUser and unprocessed WAL entries for the user are
// tombstoned at the next replay.
func (h *Hub) RemoveUser(user string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.users[user]; !ok {
		return fmt.Errorf("hub: remove %q: %w", user, ErrUnknownUser)
	}
	delete(h.users, user)
	return nil
}

// UserNames returns the hosted tenant IDs, sorted.
func (h *Hub) UserNames() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.users))
	for u := range h.users {
		names = append(names, u)
	}
	sort.Strings(names)
	return names
}

// Counters returns the hub-level counters: received, delivered, routed,
// rejected, filtered, duplicates, rejects-overload, replayed,
// tombstoned, undeliverable, delivery-retries.
func (h *Hub) Counters() *metrics.CounterSet { return h.counters }

// Latency returns the end-to-end latency recorder
// (admission → marked processed), reservoir-sampled.
func (h *Hub) Latency() *metrics.Recorder { return h.latency }

// StageLatencies is the per-stage latency split of the hub's pipeline.
type StageLatencies struct {
	// Admission is submit → burst durable (ticket resolved): the
	// group-commit wait the adaptive scheduler is minimizing.
	Admission metrics.Summary
	// QueueWait is admission → dequeued by the shard loop.
	QueueWait metrics.Summary
	// Route is the pipeline evaluation on the shard loop.
	Route metrics.Summary
	// Deliver is handoff → delivery completion: per-user chain wait,
	// window wait, sink attempts, and retry backoff.
	Deliver metrics.Summary
}

// Stages summarizes the per-stage latency split.
func (h *Hub) Stages() StageLatencies {
	return StageLatencies{
		Admission: h.admitLat.Summarize(),
		QueueWait: h.queueWait.Summarize(),
		Route:     h.routeLat.Summarize(),
		Deliver:   h.deliverLat.Summarize(),
	}
}

// ShardStat is one shard's observability snapshot.
type ShardStat struct {
	Shard     int
	Depth     int // current queued + in-admission + in-delivery alerts
	PeakDepth int
	// InFlight / PeakInFlight count the delivery stage's concurrent
	// channel Sends (bounded by DeliveryWindow).
	InFlight     int
	PeakInFlight int
	// State is the shard's lifecycle state; Generation counts the
	// incarnations of its restartable machinery (1 = never recycled).
	State      ShardState
	Generation int64
	// Restarts counts kill+replay recoveries; Rejuvenations counts
	// graceful recycles.
	Restarts      int64
	Rejuvenations int64
}

// TierStat is one delivery QoS tier's outcome counters.
type TierStat struct {
	Tier core.Tier
	// Delivered counts confirmed deliveries under the tier (outbox
	// redeliveries included for the guaranteed tier).
	Delivered int64
	// Duplicated counts duplicate submissions suppressed for tenants
	// whose default tier this is.
	Duplicated int64
	// Lost counts alerts dropped after the attempt budget (best-effort)
	// or retired as permanently undeliverable (guaranteed; tenant gone).
	Lost int64
	// Escalated counts outbox channel escalations: redelivery advancing
	// to the delivery mode's next block. Always zero for best-effort.
	Escalated int64
}

// Stats is a point-in-time snapshot of the hub's health.
type Stats struct {
	Users   int
	Shards  []ShardStat
	Appends int64 // WAL records staged (RECV + DONE)
	Syncs   int64 // fsyncs issued
	// MeanBatch is Appends/Syncs — the group-commit amplification.
	MeanBatch float64
	// InFlight is the current hub-wide count of executing deliveries.
	InFlight int64
	// DeliveredByChannel splits successful deliveries by the
	// communication type that confirmed them (addr.TypeSink is the flat
	// substrate). Types with zero deliveries are omitted.
	DeliveredByChannel map[addr.Type]int64
	// Tiers splits delivery outcomes by QoS tier, indexed by core.Tier.
	Tiers [core.NumTiers]TierStat
	// OutboxHandoffs counts guaranteed-tier deliveries that exhausted
	// the in-memory budget and were persisted to the retry outbox.
	OutboxHandoffs int64
	// Outbox is the retry outbox's snapshot; nil when the hub runs
	// without one.
	Outbox *outbox.Stats
	// WAL is the journal's own snapshot: fsyncs, staged batches, corrupt
	// records, disk bytes, commit histograms.
	WAL plog.Stats
}

// Stats snapshots queue depths, delivery in-flight gauges, and WAL
// commit statistics.
func (h *Hub) Stats() Stats {
	wal := h.wal.Stats()
	s := Stats{
		Users:   h.Users(),
		Appends: wal.Appended,
		Syncs:   wal.Syncs,
		WAL:     wal,
	}
	for _, t := range []addr.Type{addr.TypeIM, addr.TypeSMS, addr.TypeEmail, addr.TypeSink} {
		if n := h.counters.Get(deliveredViaCounter(t)); n > 0 {
			if s.DeliveredByChannel == nil {
				s.DeliveredByChannel = make(map[addr.Type]int64)
			}
			s.DeliveredByChannel[t] = n
		}
	}
	for t := core.Tier(0); t < core.NumTiers; t++ {
		s.Tiers[t] = TierStat{
			Tier:       t,
			Delivered:  h.ctr.tierDelivered[t].Value(),
			Duplicated: h.ctr.tierDuplicated[t].Value(),
			Lost:       h.ctr.tierLost[t].Value(),
		}
	}
	s.OutboxHandoffs = h.ctr.outboxHandoffs.Value()
	if h.outbox != nil {
		ob := h.outbox.Stats()
		s.Outbox = &ob
		s.Tiers[core.TierGuaranteed].Escalated = ob.Escalated
	}
	if s.Syncs > 0 {
		s.MeanBatch = float64(s.Appends) / float64(s.Syncs)
	}
	for _, sh := range h.shards {
		inflight := sh.inflight.Load()
		s.InFlight += inflight
		s.Shards = append(s.Shards, ShardStat{
			Shard:         sh.id,
			Depth:         int(sh.depth.Load()),
			PeakDepth:     int(sh.peak.Load()),
			InFlight:      int(inflight),
			PeakInFlight:  int(sh.inflight.Peak()),
			State:         sh.State(),
			Generation:    sh.gen.Load(),
			Restarts:      sh.restarts.Load(),
			Rejuvenations: sh.rejuvenations.Load(),
		})
	}
	return s
}

// CheckpointWAL forces a checkpoint + segment compaction on the WAL, as
// the background compactor would at the WALCheckpointEvery threshold.
func (h *Hub) CheckpointWAL() error { return h.wal.Checkpoint() }

// fault consults Config.Fault at point p and, on a true reply, kills
// the hub — once however many callers reach a crash point together,
// with one journal line — and reports true: the caller abandons what it
// was doing, as a crash there would.
func (h *Hub) fault(p FaultPoint, shard int, killed <-chan struct{}) bool {
	if f := h.cfg.Fault; f == nil || !f(p, shard, killed) {
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
