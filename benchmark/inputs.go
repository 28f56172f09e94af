package main

import (
	"fmt"
	"math/rand"
	"time"

	"simba/internal/alert"
)

// spec fixes one workload's traffic. Sizes are per episode: a run
// repeats episodes (fresh hub, fresh WAL directory) until its time is
// up and reports medians over them, so the sizes — not the run length —
// decide what one sample measures.
type spec struct {
	name string
	why  string

	// Closed loop: submitters each hold depth SubmitBatchAsync tickets
	// of burst alerts; alerts is the load per episode (per cycle on
	// crash_recovery).
	alerts int
	// Open loop: one generator on a Poisson schedule of burstsPerS
	// bursts/s for openSeconds.
	open        bool
	burstsPerS  int
	openSeconds float64

	burst int
	// zipf draws tenants Zipf(1.1) instead of uniformly, so hot tenants
	// build per-user FIFO chains and shard skew.
	zipf bool
	// rejectFrac of the alerts carry a source the classifier rejects.
	rejectFrac float64
	// modes gives every tenant an IMThenEmail mode (half guaranteed
	// tier), a 20 ms ack timeout and the retry outbox.
	modes bool
	// undeliveredCap, when positive, makes a submitter wait while this
	// many acknowledged alerts are still undelivered: the closed loop
	// closes on delivery, not on the ack, and stays inside the hub's
	// admission capacity (8 shards × 256) instead of living on refusals.
	undeliveredCap int
	// cycles > 0 makes the episode a kill/recover loop on one WAL
	// directory: each cycle loads alerts, closes the channel gate,
	// gets backlog more alerts acked, and kills the hub.
	cycles  int
	backlog int
	// restarts is how many times a non-crash episode reopens the drained
	// hub to time recovery_s.
	restarts int
}

const (
	tenants    = 1000
	submitters = 2 // ≤ nproc on the reference host
	depth      = 4 // tickets in flight per submitter
	warmAlerts = 256
)

// specs are the four workloads at full size; scale divides the sizes
// (the smoke test runs at 200).
func specs(scale int) []spec {
	all := []spec{
		{
			name:   "ingest_burst",
			why:    "closed loop, bursts of 64, uniform flat tenants, instant channel: hub.submit and plog stage/group-commit/retire do the work, core almost none",
			alerts: 50000, burst: 64, restarts: 3,
		},
		{
			name: "paced_open",
			why:  "open loop, Poisson bursts of 8 from idle, Zipf tenants, 10% rejected: many small commits, so per-commit fixed costs set admission latency",
			open: true, burstsPerS: 100, openSeconds: 4, burst: 8, zipf: true, rejectFrac: 0.10, restarts: 3,
		},
		{
			name:   "delivery_modes",
			why:    "closed loop, IM-ack/timeout/email-fallback modes, half guaranteed tier with outbox: the delivery window is the bottleneck, plog does little",
			alerts: 60000, burst: 64, modes: true, undeliveredCap: 1536, restarts: 3,
		},
		{
			name:   "crash_recovery",
			why:    "kill/recover cycles on one WAL directory with acked-undelivered alerts: plog's read side (open lanes, checkpoint, replay, re-enqueue) beside the write side",
			alerts: 12000, burst: 64, cycles: 4, backlog: 1024,
		},
	}
	if scale > 1 {
		for i := range all {
			s := &all[i]
			s.alerts = max(s.alerts/scale, 4*s.burst)
			s.openSeconds = max(s.openSeconds/float64(scale), 0.05)
			s.backlog = max(s.backlog/scale, 32)
			s.cycles = min(s.cycles, 2)
			s.restarts = min(s.restarts, 1)
		}
	}
	return all
}

func findSpec(name string, scale int) (spec, bool) {
	for _, s := range specs(scale) {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Delivery behaviour classes, drawn per alert from the seed. The
// benchmark's channels consult them; flat workloads only see classAcked
// and classRejected.
const (
	classAcked    uint8 = iota // IM acknowledged 2 ms after the send
	classNoAck                 // IM never acknowledged: ack timeout, then email
	classHard                  // IM refused and email fails the first hardFails sends
	classRejected              // source the classifier rejects: retired, never delivered
)

// hardFails is how many email sends fail for a classHard alert: the
// whole in-memory budget (4 attempts) plus the first outbox round, so
// guaranteed-tier alerts exercise the outbox's failed-round path once
// and land on round two, and best-effort ones are counted drops.
const hardFails = 5

// phase is a contiguous range of an episode's alerts, split into the
// submitters' streams. Submitter w owns the tenants with index%2 == w,
// so one tenant's alerts always come from one goroutine and its
// submission order is well defined.
type phase struct {
	lo, hi  int
	streams [submitters][]int32
}

// inputs is everything one episode feeds the hub, generated from the
// seed before the hub exists.
type inputs struct {
	users  []string
	alerts []alert.Alert
	warm   []alert.Alert
	user   []int32 // tenant index per alert
	class  []uint8
	// due is the open-loop schedule: burst b is due at due[b]
	// nanoseconds after the generator starts.
	due    []int64
	phases []phase
}

var (
	sharedKeywords = []string{"stocks"} // read-only downstream
	createdBase    = time.Unix(985597200, 0)
)

func tenantNames() []string {
	names := make([]string, tenants)
	for u := range names {
		names[u] = fmt.Sprintf("u%04d", u)
	}
	return names
}

// generate draws one episode's inputs: a pure function of (seed,
// episode, spec).
func generate(sp spec, seed int64, episode int) *inputs {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(episode)))
	in := &inputs{users: tenantNames()}

	var ranges [][2]int
	total := 0
	add := func(n int) {
		ranges = append(ranges, [2]int{total, total + n})
		total += n
	}
	switch {
	case sp.open:
		bursts := int(float64(sp.burstsPerS) * sp.openSeconds)
		in.due = make([]int64, bursts)
		t := 0.0
		for b := range in.due {
			t += rng.ExpFloat64() / float64(sp.burstsPerS)
			in.due[b] = int64(t * 1e9)
		}
		add(bursts * sp.burst)
	case sp.cycles > 0:
		for c := 0; c < sp.cycles; c++ {
			add(sp.alerts)
			add(sp.backlog)
		}
	default:
		add(sp.alerts)
	}

	var zipf *rand.Zipf
	if sp.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, tenants-1)
	}
	in.alerts = make([]alert.Alert, total)
	in.user = make([]int32, total)
	in.class = make([]uint8, total)
	for i := range in.alerts {
		u := rng.Intn(tenants)
		if zipf != nil {
			u = int(zipf.Uint64())
		}
		in.user[i] = int32(u)
		source := "portal"
		p := rng.Float64()
		switch {
		case p < sp.rejectFrac:
			in.class[i] = classRejected
			source = "unsolicited"
		case !sp.modes:
			in.class[i] = classAcked
		default:
			switch q := rng.Float64(); {
			case q < 0.01:
				in.class[i] = classHard
			case q < 0.25:
				in.class[i] = classNoAck
			default:
				in.class[i] = classAcked
			}
		}
		in.alerts[i] = alert.Alert{
			ID: fmt.Sprintf("a%07d", i), Source: source,
			Keywords: sharedKeywords, Subject: "quote update",
			Urgency: alert.UrgencyNormal,
			Created: createdBase.Add(time.Duration(i) * time.Microsecond),
		}
	}
	in.warm = make([]alert.Alert, warmAlerts)
	for i := range in.warm {
		in.warm[i] = alert.Alert{
			ID: fmt.Sprintf("w%07d", i), Source: "portal",
			Keywords: sharedKeywords, Subject: "warm-up",
			Urgency: alert.UrgencyNormal,
			Created: createdBase.Add(-time.Duration(i+1) * time.Microsecond),
		}
	}
	for _, r := range ranges {
		ph := phase{lo: r[0], hi: r[1]}
		for i := r[0]; i < r[1]; i++ {
			w := 0
			if !sp.open {
				w = int(in.user[i]) % submitters
			}
			ph.streams[w] = append(ph.streams[w], int32(i))
		}
		in.phases = append(in.phases, ph)
	}
	return in
}

// guaranteed reports whether tenant u subscribes at the guaranteed
// tier on the modes workload: every other pair, so each submitter's
// tenants hold both tiers.
func guaranteed(u int32) bool { return (u/2)%2 == 0 }
