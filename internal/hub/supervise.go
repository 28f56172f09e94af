package hub

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"simba/internal/faults"
	"simba/internal/stabilize"
)

// Supervision defaults.
const (
	// DefaultCheckPeriod is the cadence of every supervision check but
	// scheduled rejuvenation. It is much faster than the MDC's
	// process-level three minutes: a check is a few atomic loads, and a
	// wedged shard should be caught in seconds.
	DefaultCheckPeriod = time.Second
	// defaultStaleAfter is how old a shard's progress beat may be while
	// one of its workers runs a chain before its check fails.
	defaultStaleAfter = 3 * time.Second
	// progressEscalateAfter is how many consecutive failures of a
	// shard's check restart the shard: one more than a single late beat,
	// and sooner than the hub-wide checks' stabilize.DefaultEscalateAfter,
	// because a shard that has stopped moving holds acknowledged alerts.
	progressEscalateAfter = 2
	// maxOutboxAge is how far past due the outbox's earliest envelope
	// may be before the outbox-age check fails.
	maxOutboxAge = time.Minute
)

// SuperviseConfig parameterizes Hub.Supervise.
type SuperviseConfig struct {
	// Period is how often each shard's check and each hub-wide check
	// runs; zero means DefaultCheckPeriod.
	Period time.Duration
	// RejuvenateEvery, when positive, renews the shards in place one at a
	// time (rolling) on this period.
	RejuvenateEvery time.Duration

	// staleAfter is how old a shard's progress beat may be while one of
	// its workers runs a chain before its check fails; zero means
	// defaultStaleAfter. Set only by this package's tests.
	staleAfter time.Duration
	// escalateAfter is how many consecutive failures of a check escalate
	// it, and again every that many while the failures last; a shard's
	// check escalates to restarting that shard. Zero means two for a
	// shard's check and stabilize.DefaultEscalateAfter for the hub-wide
	// checks. Set only by this package's tests.
	escalateAfter int
}

// Supervise builds and starts the hub's self-management plane — one
// stabilize.Stabilizer, journaling into Config.Journal, and nothing
// else. Its checks:
//
//   - "shard-N", one per shard, its watchdog: the admission depth stays
//     in [0, queue depth], the in-flight Sends in [0, delivery window],
//     the current generation's live workers at most the window, and
//     while a worker of a Running shard runs a chain, the shard has
//     beaten within defaultStaleAfter;
//   - "wal-backlog", "outbox-age" and "pool-poison", hub-wide;
//   - "rolling-rejuvenation", when RejuvenateEvery is set, whose run is
//     RejuvenateAll.
//
// A shard's check that keeps failing escalates to RestartShard of that
// shard; escalated restarts run one at a time. The hub-wide checks have
// no escalation: their failures are journaled and counted. Call after
// Start; before Drain, Stop the stabilizer and Wait for it.
func (h *Hub) Supervise(cfg SuperviseConfig) (*stabilize.Stabilizer, error) {
	h.mu.RLock()
	started := h.started
	h.mu.RUnlock()
	if !started {
		return nil, errors.New("hub: Supervise requires a started hub")
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultCheckPeriod
	}
	if cfg.staleAfter <= 0 {
		cfg.staleAfter = defaultStaleAfter
	}
	stab, err := stabilize.New(h.cfg.Clock, h.cfg.Journal)
	if err != nil {
		return nil, err
	}
	// Every check runs on its own goroutine, so two shards' checks can
	// cross their thresholds together; the mutex keeps their restarts
	// rolling — one shard down at a time, never a herd.
	var restarting sync.Mutex
	checks := make([]stabilize.Check, 0, len(h.shards)+4)
	for _, sh := range h.shards {
		name := fmt.Sprintf("shard-%d", sh.id)
		checks = append(checks, stabilize.Check{
			Name:          name,
			EscalateAfter: cmp.Or(cfg.escalateAfter, progressEscalateAfter),
			// Atomics only, by design: checking a wedged shard must not
			// block behind whatever wedged it. Floor-at-zero release and
			// restart's gauge reset keep the gauges in bounds, so an
			// excursion means the accounting broke. A shard whose workers
			// are all idle — admitted work parked on an ack or a backoff
			// holds none — is not stale, nor is one mid-restart (bounded by
			// its own timeout).
			Fn: func() error {
				hl, cur := sh.health(), sh.current()
				if hl.Depth < 0 || hl.Depth > sh.cap {
					return fmt.Errorf("queue depth %d outside [0, %d]", hl.Depth, sh.cap)
				}
				if hl.InFlight < 0 || hl.InFlight > int64(h.cfg.deliveryWindow) {
					return fmt.Errorf("in-flight %d outside [0, %d]", hl.InFlight, h.cfg.deliveryWindow)
				}
				if w := cur.live.Load(); w > int64(h.cfg.deliveryWindow) {
					return fmt.Errorf("%d live workers, window %d", w, h.cfg.deliveryWindow)
				}
				busy := cur.busy.Load()
				if hl.State != ShardRunning || busy == 0 {
					return nil
				}
				if age := h.cfg.Clock.Since(hl.LastProgress); age > cfg.staleAfter {
					return fmt.Errorf("%d workers busy, no progress for %v (max %v)", busy, age, cfg.staleAfter)
				}
				return nil
			},
			Escalate: func(err error) {
				restarting.Lock()
				defer restarting.Unlock()
				if rerr := h.RestartShard(sh.id, fmt.Sprintf("check %q: %v", name, err)); rerr != nil {
					// The streak goes on, so the stabilizer escalates again.
					h.journal(faults.KindUnrecovered, "escalation restart of shard %d failed: %v", sh.id, rerr)
				}
			},
		})
	}
	// Alert replay debt beyond 4× what admission control could have
	// admitted means DONE records are not being staged. The outbox's
	// envelopes are not counted: a long channel outage is outbox-age's.
	maxBacklog := 4 * h.cfg.Shards * h.cfg.queueDepth
	checks = append(checks, stabilize.Check{
		Name:          "wal-backlog",
		EscalateAfter: cfg.escalateAfter,
		Fn: func() error {
			if n := h.WALBacklog() - h.outbox.Pending(); n > maxBacklog {
				return fmt.Errorf("WAL backlog %d exceeds %d", n, maxBacklog)
			}
			return nil
		},
	}, stabilize.Check{
		Name:          "outbox-age",
		EscalateAfter: cfg.escalateAfter,
		Fn: func() error {
			due, ok := h.outbox.OldestDue()
			if !ok {
				return nil
			}
			if age := h.cfg.Clock.Since(due); age > maxOutboxAge {
				return fmt.Errorf("outbox head %v past due (max %v)", age, maxOutboxAge)
			}
			return nil
		},
	}, stabilize.Check{
		Name:          "pool-poison",
		EscalateAfter: -1, // corruption evidence: journal it, never "fix" it with a restart
		Fn: func() error {
			if n := poolPoisonHits.Load(); n > 0 {
				return fmt.Errorf("%d poisoned envelopes mutated while pooled (use-after-recycle)", n)
			}
			return nil
		},
	})
	if cfg.RejuvenateEvery > 0 {
		checks = append(checks, stabilize.Check{
			Name:          "rolling-rejuvenation",
			Period:        cfg.RejuvenateEvery,
			EscalateAfter: -1, // a round that fails is journaled and tried again next period
			Fn:            h.RejuvenateAll,
		})
	}
	for _, c := range checks {
		c.Period = cmp.Or(c.Period, cfg.Period)
		if err := stab.Register(c); err != nil {
			return nil, err
		}
	}
	stab.Start()
	return stab, nil
}
