package hub

import (
	"errors"

	"simba/internal/mab"
	"simba/internal/plog"
)

// route is the buddy's pipeline for q's head envelope, run by the
// worker that holds the tenant's chain: classify → aggregate → filter,
// then deliver what routes and finish what does not. A wedged
// evaluation stalls its own chain (and its worker's window slot), as a
// slow Send does, never the shard.
//
// The fault hook and the kill check run before the envelope is
// touched: a worker that wedges in the hook and is killed there
// abandons the envelope unprocessed — nothing marked, nothing
// delivered — so it and the rest of its chain replay exactly once
// through the replacement generation. ok is false when the envelope was
// abandoned, parked true when its delivery waits. q.handed, when
// routing ended, starts the deliver-stage latency split.
func (d *deliveryStage) route(q *userQueue) (parked, ok bool) {
	h, env := d.h, q.env
	h.fault(faultRoute, d.sh.id, d.killed)
	select {
	case <-d.killed:
		return false, false // abandoned: the WAL still owns the envelope
	default:
	}
	taken := h.cfg.Clock.Now()
	h.queueWait.Observe(taken.Sub(env.at))
	b := env.buddy
	category, verdict := b.pipe.Evaluate(&env.alert, taken)
	handed := h.cfg.Clock.Now()
	h.routeLat.Observe(handed.Sub(taken))
	switch verdict {
	case mab.VerdictReject:
		h.ctr.rejected.Add1()
	case mab.VerdictFilter:
		h.ctr.filtered.Add1()
	default:
		// Annotate the envelope's inline alert in place: the routed
		// category replaces the submit-time keywords, backed by the
		// envelope-owned one-element array — no per-alert slice.
		env.kw[0] = category
		env.alert.Keywords = env.kw[:1]
		env.category = category
		h.ctr.routed.Add1()
		// Deliver the tenant's mode (or the flat plan) under the alert key
		// in env.key, the wire form encoded once (nil on error: Begin says).
		reg, mode, tier := h.plan(b, category)
		q.attempt, q.tier, q.handed = 1, tier, handed
		q.wire, _ = env.alert.AppendWire(q.wire[:0])
		if err := h.exec.Begin(h.deliveryContext(b.user, d.sh.id), &env.alert, env.key[len(b.user)+len(keySep):], q.wire, reg, mode, &q.scr, q); err != nil {
			return false, d.settle(q, nil, err) // no attempt can walk this plan
		}
		return d.perform(q)
	}
	d.finish(env)
	return false, true
}

// finish durably completes an alert: stage its WAL DONE into the next
// group commit (a no-op for a handed-off alert, whose handoff batch
// carried it), release its admission slot and recycle the envelope.
// Losing an unflushed DONE only causes a replay, which the dedup
// contract covers; Drain/Close still flush every staged record.
func (d *deliveryStage) finish(env *envelope) {
	h := d.h
	if err := h.wal.MarkProcessedAsync(env.key, h.cfg.Clock.Now()); err != nil && !errors.Is(err, plog.ErrClosed) {
		h.ctr.markFailed.Add1()
	}
	d.sh.release()
	putEnvelope(env) // DONE staged, slot released: recycle
}
