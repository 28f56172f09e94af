package hub

import (
	"errors"

	"simba/internal/mab"
	"simba/internal/plog"
)

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

// finish queues a reject/filter verdict for the batch's one DONE.
func (s *routeScratch) finish(env *envelope) {
	s.finished = append(s.finished, env)
	s.keys = append(s.keys, env.key)
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
			scr.finish(env)
		case mab.VerdictFilter:
			b.filtered.Add(1)
			h.ctr.filtered.Add1()
			scr.finish(env)
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
