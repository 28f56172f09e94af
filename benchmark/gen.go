package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/hub"
)

// genStats is what the load generator knows about itself.
type genStats struct {
	offered         int64
	overloadRetries int64
	submitErrors    int64
	lateNs          []int64 // open loop: how late each burst was sent
	backlogEnd      int64   // open loop: alerts offered but not completed when the schedule ended
	missedAcks      int64   // acks that missed the hub's wait, so the email followed the IM
}

// retryCap bounds how long a closed-loop submitter sleeps on an
// OverloadError. The hub's hint grows with queue depth (≈ 0.3 s at a
// full shard), long enough to idle the delivery window the modes
// workload exists to saturate; capped, refused entries come back while
// the shard is still busy and the window stays the bottleneck.
const retryCap = 2 * time.Millisecond

// slot is one in-flight burst: the submissions, which alerts they are,
// and the callback that records their fate. Slots and their callbacks
// are built once per generator run, so the generator allocates nothing
// per burst.
type slot struct {
	subs []hub.Submission
	idx  []int32
	errs []error
	done chan struct{} // the callback finished; the slot may be reused
	busy bool
	cb   func([]error)
	span int // traced runs: the burst's entry in the tracer
}

func (e *episode) newSlot(after func(*slot)) *slot {
	s := &slot{
		subs: make([]hub.Submission, 0, e.sp.burst),
		idx:  make([]int32, 0, e.sp.burst),
		done: make(chan struct{}, 1),
	}
	r := e.rec
	s.cb = func(errs []error) {
		now := r.now()
		for k, err := range errs {
			if err == nil {
				r.admitAt[s.idx[k]] = now
			}
		}
		if r.tr != nil {
			r.tr.committed(s.span, now)
		}
		s.errs = errs
		after(s)
	}
	return s
}

// fill loads the slot with the next burst of the stream, stamping each
// alert, and returns how many alerts of the stream remain.
func (e *episode) fill(s *slot, stream []int32, stamp int64) []int32 {
	n := min(e.sp.burst, len(stream))
	s.subs, s.idx = s.subs[:0], s.idx[:0]
	for _, i := range stream[:n] {
		e.rec.stamp[i] = stamp
		s.subs = append(s.subs, hub.Submission{User: e.in.users[e.in.user[i]], Alert: &e.in.alerts[i]})
		s.idx = append(s.idx, i)
	}
	return stream[n:]
}

// closedLoop offers one phase's alerts: each submitter keeps depth
// SubmitBatchAsync tickets in flight and sends its next burst only when
// its oldest ticket has resolved. It returns once every alert of the
// phase is acknowledged.
func (e *episode) closedLoop(ph phase, gs *genStats) {
	var wg sync.WaitGroup
	var retries, errs atomic.Int64
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.submitter(w, ph.streams[w], &retries, &errs)
		}(w)
	}
	wg.Wait()
	gs.offered += int64(ph.hi - ph.lo)
	gs.overloadRetries += retries.Load()
	gs.submitErrors += errs.Load()
}

func (e *episode) submitter(w int, stream []int32, retries, errs *atomic.Int64) {
	r := e.rec
	ring := make([]*slot, depth)
	for k := range ring {
		ring[k] = e.newSlot(func(s *slot) { s.done <- struct{}{} })
	}
	// call numbers this submitter's submit calls across the episode. A
	// tenant's alerts all come from one submitter, so (call, position) of
	// the call that finally accepted an alert is the tenant's submission
	// order.
	call := e.calls[w]
	defer func() { e.calls[w] = call }()
	var retry []hub.Submission
	var retryIdx []int32
	settle := func(s *slot) {
		<-s.done
		s.busy = false
		retry, retryIdx = retry[:0], retryIdx[:0]
		var hint time.Duration
		for k, err := range s.errs {
			var over *hub.OverloadError
			switch {
			case err == nil:
			case errors.As(err, &over):
				retry = append(retry, s.subs[k])
				retryIdx = append(retryIdx, s.idx[k])
				hint = over.RetryAfter
			default:
				errs.Add(1)
			}
		}
		// Refused entries go back synchronously until accepted: overload
		// is the slow path.
		for len(retry) > 0 {
			retries.Add(int64(len(retry)))
			time.Sleep(min(hint, retryCap))
			call++
			for pos, i := range retryIdx {
				r.order[i] = call<<16 | uint64(pos)
			}
			res := e.hub.SubmitBatch(retry)
			now := r.now()
			n := 0
			for k, err := range res {
				var over *hub.OverloadError
				switch {
				case err == nil:
					r.admitAt[retryIdx[k]] = now
				case errors.As(err, &over):
					retry[n], retryIdx[n] = retry[k], retryIdx[k]
					n++
					hint = over.RetryAfter
				default:
					errs.Add(1)
				}
			}
			retry, retryIdx = retry[:n], retryIdx[:n]
		}
	}
	for k := 0; len(stream) > 0; k++ {
		s := ring[k%depth]
		if s.busy {
			settle(s)
		}
		for limit := e.sp.undeliveredCap; limit > 0 && e.hub.WALBacklog() >= limit; {
			time.Sleep(200 * time.Microsecond)
		}
		stamp := r.now()
		stream = e.fill(s, stream, stamp)
		call++
		for pos, i := range s.idx {
			r.order[i] = call<<16 | uint64(pos)
		}
		s.busy = true
		if r.tr != nil {
			s.span = r.tr.burst(s.idx, stamp, stamp)
		}
		e.hub.SubmitBatchAsync(s.subs, s.cb)
		if r.tr != nil {
			r.tr.returned(s.span, r.now())
		}
	}
	for _, s := range ring {
		if s.busy {
			settle(s)
		}
	}
}

// openLoop offers the phase on its Poisson schedule from one
// goroutine, regardless of how the hub keeps up: each burst is stamped
// with the time it was due, so a stall is charged to every burst it
// delays. The generator never sleeps: on the reference host a timer
// fires one to three milliseconds late, more than the latencies being
// measured, so it yields the processor in a loop until the due time has
// passed — which costs a core and makes this workload's CPU figure the
// generator's. A refused entry is not retried; it counts as failed.
func (e *episode) openLoop(ph phase, gs *genStats) {
	r := e.rec
	stream := ph.streams[0]
	// As many slots as the hub allows unresolved tickets (AsyncInFlight
	// defaults to 256), so the generator never waits for a slot before
	// the hub itself would block it.
	const slots = 256
	free := make(chan *slot, slots)
	var refused atomic.Int64
	for k := 0; k < slots; k++ {
		free <- e.newSlot(func(s *slot) {
			for _, err := range s.errs {
				if err != nil {
					refused.Add(1)
				}
			}
			free <- s
		})
	}
	gs.lateNs = make([]int64, 0, len(e.in.due))
	start := r.now()
	for _, due := range e.in.due {
		due += start
		for r.now() < due {
			runtime.Gosched()
		}
		s := <-free
		stream = e.fill(s, stream, due)
		now := r.now()
		gs.lateNs = append(gs.lateNs, now-due)
		if r.tr != nil {
			s.span = r.tr.burst(s.idx, due, now)
		}
		e.hub.SubmitBatchAsync(s.subs, s.cb)
		if r.tr != nil {
			r.tr.returned(s.span, r.now())
		}
	}
	gs.offered += int64(ph.hi - ph.lo)
	gs.backlogEnd = int64(ph.hi-ph.lo) - e.completed()
	for k := 0; k < slots; k++ {
		<-free
	}
	gs.submitErrors += refused.Load()
}

// completed is how many offered alerts the hub has finished with:
// delivered, or rejected by the classifier.
func (e *episode) completed() int64 {
	return e.rec.delivered.Load() + e.hub.Counters().Get("rejected")
}
