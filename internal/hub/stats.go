package hub

import (
	"simba/internal/addr"
	"simba/internal/core"
	"simba/internal/metrics"
	"simba/internal/outbox"
	"simba/internal/plog"
)

// countDelivered accounts one successful delivery under tier: the hub
// total, the tier's, and the confirming channel type's.
func (h *Hub) countDelivered(tier core.Tier, rep *core.Report) {
	h.ctr.delivered.Add1()
	h.ctr.tierDelivered[tier].Add1()
	h.deliveredViaCounterFor(rep.DeliveredType()).Add1()
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

// ShardHealth returns shard id's snapshot. Reads atomics only — safe
// to call against a wedged shard.
func (h *Hub) ShardHealth(id int) (Health, error) {
	sh, err := h.shardByID(id)
	if err != nil {
		return Health{}, err
	}
	return sh.health(), nil
}

// Healths snapshots every shard (atomics only).
func (h *Hub) Healths() []Health {
	out := make([]Health, len(h.shards))
	for i, sh := range h.shards {
		out[i] = sh.health()
	}
	return out
}

// WALBacklog returns the WAL's live not-yet-processed record count —
// the replay debt a restart would face right now: acknowledged alerts
// not yet DONE, and the retry outbox's pending envelopes.
func (h *Hub) WALBacklog() int { return h.wal.Pending() }

// Counters returns the hub-level counters. Admission: received,
// duplicates, rejects-overload, rejected-invalid,
// rejected-unknown-user. Routing: routed, rejected, filtered.
// Delivery: delivered, delivery-retries, undeliverable,
// outbox-handoffs, mark-failed, and the delivered-via-<channel type>
// family. Recovery: replayed, tombstoned. Per QoS tier (core.Tier's
// String): delivered-tier-*, duplicates-tier-*, lost-tier-*.
func (h *Hub) Counters() *metrics.CounterSet { return h.counters }

// StageLatencies is the per-stage latency split of the hub's pipeline.
type StageLatencies struct {
	// Admission is submit → burst durable (ticket resolved): the
	// group-commit wait the adaptive scheduler is minimizing.
	Admission metrics.Summary
	// QueueWait is ack → a worker takes the envelope off its user's
	// chain (chain and worker wait).
	QueueWait metrics.Summary
	// Route is the pipeline's Evaluate on that worker.
	Route metrics.Summary
	// Deliver is evaluation → delivery completion: window wait, sink
	// attempts, and retry backoff.
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
	Shards  []Health // Healths()
	Appends int64    // WAL records staged (RECV + DONE)
	Syncs   int64    // fsyncs issued
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
	// Outbox is the retry outbox's snapshot (never nil). Its Log is
	// zero: the outbox journals into the WAL.
	Outbox *outbox.Stats
	// WAL is the journal's own snapshot, outbox records included:
	// fsyncs, staged batches, corrupt records, disk bytes, commit
	// histograms.
	WAL plog.Stats
}

// Stats snapshots queue depths, delivery in-flight gauges, and WAL
// commit statistics.
func (h *Hub) Stats() Stats {
	wal := h.wal.Stats()
	s := Stats{
		Users:   h.Users(),
		Shards:  h.Healths(),
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
	ob := h.outbox.Stats()
	s.Outbox = &ob
	s.Tiers[core.TierGuaranteed].Escalated = ob.Escalated
	if s.Syncs > 0 {
		s.MeanBatch = float64(s.Appends) / float64(s.Syncs)
	}
	for _, hl := range s.Shards {
		s.InFlight += hl.InFlight
	}
	return s
}
