package main

import (
	"fmt"
	"sort"

	"simba/internal/core"
)

// judge is the correctness oracle, run after every episode. It checks
// the paper's contract from the users' side of the channels:
//
//   - every alert the hub acknowledged was delivered exactly once, or is
//     one of the outcomes the seed predicts (rejected by the classifier,
//     or a best-effort drop of an undeliverable alert);
//   - nothing was delivered twice — not even across a kill, because the
//     gate guarantees no delivery was in flight when the hub died;
//   - each tenant received its alerts in the order they were accepted;
//   - the hub's own counters equal the values the seed predicts.
//
// It also digests the sample's latency distributions. Each violation
// counts against failed.
func (e *episode) judge(s *sample) {
	r, in := e.rec, e.in
	fail := func(n int64, format string, args ...any) {
		if n == 0 {
			return
		}
		s.failed += n
		if len(s.problems) < 8 {
			s.problems = append(s.problems, fmt.Sprintf(format, args...))
		}
	}
	fail(s.gen.submitErrors, "%d submissions failed or were refused", s.gen.submitErrors)

	var want struct{ im, email, sink, rejected, handoffs, dropped int64 }
	var unacked, lost, dup, acked int64
	admit := make([]int64, 0, len(in.alerts))
	deliver := make([]int64, 0, len(in.alerts))
	perUser := make([][]int32, tenants)
	for i := range in.alerts {
		if r.admitAt[i] == 0 {
			unacked++
			continue
		}
		admit = append(admit, r.admitAt[i]-r.stamp[i])
		wantConfirms := int32(1)
		switch c := in.class[i]; {
		case c == classRejected:
			want.rejected++
			wantConfirms = 0
		case !e.sp.modes:
			want.sink++
		case c == classAcked && r.fellBack[i].Load():
			// The ack missed the hub's wait and the email followed: the
			// user saw both. See the tolerance below.
			acked++
			s.gen.missedAcks++
			want.email++
			wantConfirms = 2
		case c == classAcked:
			acked++
			want.im++
		case c == classNoAck:
			want.email++
		case guaranteed(in.user[i]):
			want.handoffs++
			want.email++
		default:
			want.dropped++
			wantConfirms = 0
		}
		got := r.confirms[i].Load()
		switch {
		case got < wantConfirms:
			lost++
		case got > wantConfirms:
			dup += int64(got - wantConfirms)
		}
		if got != wantConfirms && len(s.problems) < 4 {
			s.problems = append(s.problems, fmt.Sprintf("alert %d (class %d, guaranteed %v): %d confirmations, want %d; %d IM sends, %d email sends",
				i, in.class[i], guaranteed(in.user[i]), got, wantConfirms, r.imSends[i].Load(), r.tries[i].Load()))
		}
		if got > 0 {
			deliver = append(deliver, r.deliverAt[i]-r.stamp[i])
			// An outbox redelivery is out of band by design: the tenant's
			// chain moved on when the alert was handed off.
			if in.class[i] != classHard {
				perUser[in.user[i]] = append(perUser[in.user[i]], int32(i))
			}
		}
	}
	fail(unacked, "%d alerts were never acknowledged", unacked)
	fail(lost, "%d acknowledged alerts were not delivered", lost)
	fail(dup, "%d duplicate deliveries", dup)
	// An ack can miss the wait it answers without the hub being wrong:
	// the host stalls for tens of milliseconds now and then, so the pump
	// hands an ack over after the 20 ms wait expired, or a delivery worker
	// is descheduled between its Send and registering the wait and the
	// ack arrives first (the executor drops it as a stray). A handful per
	// episode is that; more than 1 % of the acknowledged alerts is a
	// stall long enough to spoil the episode's timings too, so it is
	// discarded and run again. A hub that really ignored acks would spoil
	// every episode, and the run fails on too many invalid ones.
	if s.gen.missedAcks*100 > acked {
		s.invalid = fmt.Sprintf("%d of %d acknowledgements missed the hub's wait", s.gen.missedAcks, acked)
	}
	s.admit, s.deliver = digest(admit), digest(deliver)

	// Per-tenant order: sorted by confirmation sequence, the accept
	// order keys must ascend. The open loop has one generator, whose
	// burst order is the index order.
	var disorder int64
	for _, idx := range perUser {
		sort.Slice(idx, func(a, b int) bool { return r.dseq[idx[a]] < r.dseq[idx[b]] })
		for k := 1; k < len(idx); k++ {
			a, b := idx[k-1], idx[k]
			if e.sp.open && a > b || !e.sp.open && r.order[a] > r.order[b] {
				disorder++
			}
		}
	}
	fail(disorder, "%d per-tenant order violations", disorder)

	// The hub's counters repeat exactly for a seed; warm-up alerts ride
	// the sink on flat workloads and email (IM refuses them) on modes.
	warm := int64(len(in.warm))
	if e.sp.modes {
		want.email += warm
	} else {
		want.sink += warm
	}
	got := e.counters
	check := func(name string, got, want int64) {
		if got != want {
			fail(1, "hub counter %s = %d, the seed predicts %d", name, got, want)
		}
	}
	check("delivered-via-IM", got["delivered-via-IM"], want.im)
	check("delivered-via-EM", got["delivered-via-EM"], want.email)
	check("delivered-via-SINK", got["delivered-via-SINK"], want.sink)
	check("rejected", got["rejected"], want.rejected)
	check("outbox-handoffs", got["outbox-handoffs"], want.handoffs)
	check("lost-tier-"+core.TierBestEffort.String(), got["lost-tier-"+core.TierBestEffort.String()], want.dropped)
	check("lost-tier-"+core.TierGuaranteed.String(), got["lost-tier-"+core.TierGuaranteed.String()], 0)

	// The generator's own rule (open loop): the hub must have kept up
	// with the schedule, or the latencies are a backlog's, not the hub's.
	if limit := int64(e.sp.burstsPerS*e.sp.burst) / 4; e.sp.open && s.gen.backlogEnd > limit {
		s.invalid = fmt.Sprintf("backlog of %d alerts when the schedule ended", s.gen.backlogEnd)
	}
}
