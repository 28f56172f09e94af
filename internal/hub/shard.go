package hub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/dist"
	"simba/internal/metrics"
	"simba/internal/stabilize"
)

// ShardState is one shard's lifecycle state. A shard is the hub's unit
// of recovery: it can be killed and replayed, or renewed in place,
// while its siblings keep serving.
type ShardState int32

// Shard lifecycle states.
const (
	// ShardIdle: created, no generation published yet.
	ShardIdle ShardState = iota
	// ShardRunning: generation live, admission open.
	ShardRunning
	// ShardRestarting: the current generation was killed; the next one
	// is replaying the shard's WAL backlog before admission reopens.
	ShardRestarting
	// ShardStopped: the hub is draining or killed; the shard will not
	// run again in this process.
	ShardStopped
)

// String renders the state for stats, journals, and the ops plane.
func (s ShardState) String() string {
	switch s {
	case ShardIdle:
		return "idle"
	case ShardRunning:
		return "running"
	case ShardRestarting:
		return "restarting"
	case ShardStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// MarshalText renders the state by name in JSON and other text forms.
func (s ShardState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a state back from its name.
func (s *ShardState) UnmarshalText(text []byte) error {
	for st := ShardIdle; st <= ShardStopped; st++ {
		if st.String() == string(text) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("hub: unknown shard state %q", text)
}

// shard is a partition of the tenants with bounded admission. depth
// counts admitted-but-unfinished alerts (chained, being routed or
// delivered, and mid-admission waiting on the WAL), so reservation
// happens before the pessimistic log and a reserved slot guarantees
// the later enqueue cannot block or drop.
//
// Each incarnation of a shard is its current delivery stage; the shard
// itself carries only what must survive a restart: the admission gauge,
// the lifecycle state, the progress heartbeat, and the restart counters.
type shard struct {
	id  int
	cap int64
	rng *dist.RNG // forked per shard; simulated substrates draw from it

	depth atomic.Int64
	peak  atomic.Int64
	// inflight gauges the delivery stage's workers inside an executor
	// step — a block's channel Sends; it lives on the shard (not the
	// stage) so the peak survives generation swaps.
	inflight metrics.Gauge

	// Supervision-facing atomics: the health probe reads exactly these,
	// never a lock — a probe of a wedged shard must not block behind the
	// thing that wedged it.
	state    atomic.Int32       // ShardState
	gen      atomic.Int64       // current generation number
	progress stabilize.Progress // beaten as a worker takes a chain and after each step

	restarts      atomic.Int64 // kill+replay restarts
	rejuvenations atomic.Int64 // in-place renewals

	// released counts slots given back; retryHint differences it into
	// the drain rate below. rateMu is taken on the overload path only.
	released atomic.Int64
	rateMu   sync.Mutex
	rateAt   time.Time // when released was last sampled
	rateN    int64     // released at rateAt
	rate     float64   // EWMA of slots released per second while refusing
	measured bool      // rate holds a sample: "none yet" is not "zero"

	// lifeMu serializes lifecycle transitions (restart, rejuvenate,
	// drain-close) per shard; the hot path never touches it.
	lifeMu sync.Mutex

	mu  sync.RWMutex                  // guards swapping cur, and cur.closed
	cur atomic.Pointer[deliveryStage] // read lock-free by current and the check
}

func newShard(id, queueDepth int, rng *dist.RNG) *shard {
	return &shard{
		id:  id,
		cap: int64(queueDepth),
		rng: rng,
	}
}

// current returns the live generation.
func (s *shard) current() *deliveryStage { return s.cur.Load() }

// setState publishes a lifecycle transition.
func (s *shard) setState(st ShardState) { s.state.Store(int32(st)) }

// State returns the shard's lifecycle state (lock-free).
func (s *shard) State() ShardState { return ShardState(s.state.Load()) }

// Health is a shard's one snapshot, read from atomics only: what its
// supervision check judges, what Stats reports per shard, and, as JSON,
// the ops plane's wire format.
type Health struct {
	Shard int        `json:"shard"`
	State ShardState `json:"state"`
	// Generation is 1 + Restarts + Rejuvenations once started: each
	// restart and each rejuvenation advances it.
	Generation int64 `json:"generation"`
	// Depth is the admitted-but-unfinished alerts (in admission,
	// chained, or in delivery); InFlight the concurrent channel Sends,
	// bounded by the delivery window. The peaks survive generation swaps.
	Depth        int64     `json:"depth"`
	PeakDepth    int       `json:"peak_depth"`
	InFlight     int64     `json:"in_flight"`
	PeakInFlight int       `json:"peak_in_flight"`
	LastProgress time.Time `json:"last_progress"`
	// Restarts counts kill+replay recoveries, Rejuvenations in-place
	// renewals.
	Restarts      int64 `json:"restarts"`
	Rejuvenations int64 `json:"rejuvenations"`
}

// health snapshots the shard's atomics. It never takes shard locks, so
// it is safe to call against a wedged shard.
func (s *shard) health() Health {
	return Health{
		Shard:         s.id,
		State:         s.State(),
		Generation:    s.gen.Load(),
		Depth:         s.depth.Load(),
		PeakDepth:     int(s.peak.Load()),
		InFlight:      s.inflight.Load(),
		PeakInFlight:  int(s.inflight.Peak()),
		LastProgress:  s.progress.Last(),
		Restarts:      s.restarts.Load(),
		Rejuvenations: s.rejuvenations.Load(),
	}
}

// reserveSlot claims one slot regardless of lifecycle state — the
// replay path admits into a ShardRestarting shard through this.
func (s *shard) reserveSlot() bool {
	for {
		d := s.depth.Load()
		if d >= s.cap {
			return false
		}
		if s.depth.CompareAndSwap(d, d+1) {
			s.notePeak(d + 1)
			return true
		}
	}
}

// reserveN bulk-claims up to n queue slots with a single successful
// CAS, returning how many it got (possibly zero) — the batched-ingest
// admission primitive. Partial grants let the rest of a burst fail
// with OverloadError individually instead of rejecting the whole
// burst. A shard that is not Running grants nothing: a restart closes
// admission the same way a full queue does, and the sender's
// retry-after-hint loop rides it out.
func (s *shard) reserveN(n int64) int64 {
	if s.State() != ShardRunning {
		return 0
	}
	for {
		d := s.depth.Load()
		grant := s.cap - d
		if grant <= 0 {
			return 0
		}
		if grant > n {
			grant = n
		}
		if s.depth.CompareAndSwap(d, d+grant) {
			s.notePeak(d + grant)
			return grant
		}
	}
}

// reserveBlocking claims a slot, waiting for one to free up,
// regardless of lifecycle state. Only used by replay, while the
// generation's workers are guaranteed to be draining.
func (s *shard) reserveBlocking() {
	for !s.reserveSlot() {
		time.Sleep(time.Millisecond)
	}
}

// release returns a slot. It floors at zero: after a kill+replay
// restart resets the gauge, a straggling worker from the abandoned
// generation may still release a reservation the reset already wiped,
// and a negative depth would both leak admission capacity and fail the
// shard's check.
func (s *shard) release() {
	for {
		d := s.depth.Load()
		if d <= 0 {
			return
		}
		if s.depth.CompareAndSwap(d, d-1) {
			s.released.Add(1)
			return
		}
	}
}

func (s *shard) notePeak(d int64) {
	for {
		p := s.peak.Load()
		if d <= p || s.peak.CompareAndSwap(p, d) {
			return
		}
	}
}

// enqueue hands an admitted envelope to the current generation's
// delivery stage. The caller holds a reservation, so nothing blocks;
// the read lock fences against close and generation swap, so once
// intake is closed no submit can reach a stage something waits on.
// replayed marks the replay path's own copies, which skip the
// suppression check — they are exactly the keys in the suppression set.
func (s *shard) enqueue(env *envelope, replayed bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.cur.Load()
	if d == nil || d.closed {
		// Drain, Kill or a kill+replay restart raced us after
		// reservation: the alert is durable and unmarked, so the next
		// incarnation — of the shard or of the process — replays it.
		// Nothing is silently lost.
		s.release()
		return
	}
	if !replayed && d.replaySuppress != nil {
		if _, owned := d.replaySuppress[env.key]; owned {
			// This generation already replayed the alert from the WAL:
			// the submitter reserved on the previous generation and lost
			// the race with the restart. The replayed copy owns delivery;
			// routing this one too would deliver it twice.
			s.release()
			return
		}
	}
	d.submit(env)
}

// closeIntake ends the current generation's intake and returns it (nil
// before Start). Once it returns no submit can reach the stage, so the
// stage may be quiesced.
func (s *shard) closeIntake() *deliveryStage {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.cur.Load()
	if d != nil {
		d.closed = true
	}
	return d
}

// killCurrent closes the current generation's intake, then abandons it.
func (s *shard) killCurrent() *deliveryStage {
	d := s.closeIntake()
	if d != nil {
		d.kill()
	}
	return d
}

const (
	// rateSampleMin is the shortest interval a drain-rate sample spans;
	// refusals closer together share a sample.
	rateSampleMin = 5 * time.Millisecond
	// rateSampleMax is the longest: a refusal later than this after the
	// previous one starts a new overload episode, and the gap between
	// (when the shard was not full) is not drain time.
	rateSampleMax = time.Second
	// rateAlpha weights a new sample in the EWMA.
	rateAlpha = 0.25
	// maxRetryHint caps the hint when the measured rate falls toward
	// zero (a gated substrate): the sender probes about once a second.
	maxRetryHint = time.Second
)

// retryHint estimates how long the sender should back off: the time the
// shard needs to give back as many slots as it holds now, at the rate it
// has been observed giving them back while refusing — an EWMA over the
// refusals of the current and earlier overload episodes, so it is
// measured exactly when the shard is full. Until a first sample exists
// the hint is the commit window alone, so the sender's next refusal
// takes that sample; behind a gated substrate the samples read zero, or
// decay toward it, and the estimate stops at maxRetryHint. A commit
// window is added either way, plus jitter from the shard's own RNG so a
// thundering herd of rejected senders does not return in lockstep.
func (s *shard) retryHint(now time.Time, window time.Duration) time.Duration {
	if window <= 0 {
		window = 5 * time.Millisecond
	}
	depth := s.depth.Load()
	n := s.released.Load()
	s.rateMu.Lock()
	switch dt := now.Sub(s.rateAt); {
	case s.rateAt.IsZero() || dt > rateSampleMax:
		s.rateAt, s.rateN = now, n
	case dt >= rateSampleMin:
		sample := float64(n-s.rateN) / dt.Seconds()
		if s.measured {
			s.rate += rateAlpha * (sample - s.rate)
		} else {
			s.rate, s.measured = sample, true
		}
		s.rateAt, s.rateN = now, n
	}
	rate, measured := s.rate, s.measured
	s.rateMu.Unlock()

	var drain time.Duration
	if measured && depth > 0 {
		// Cap in seconds, before the conversion: a rate decayed to almost
		// nothing, or zero, would overflow a Duration.
		if secs := float64(depth) / rate; secs < maxRetryHint.Seconds() {
			drain = time.Duration(secs * float64(time.Second))
		} else {
			drain = maxRetryHint
		}
	}
	base := window + drain
	jitter := time.Duration(s.rng.Float64() * float64(base) / 2)
	return base + jitter
}
