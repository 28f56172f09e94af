// Package stabilize implements MyAlertBuddy's self-stabilization: a
// registry of invariant checks, each run on its own period, that
// detect and correct violations instead of trying to anticipate every
// failure. Checks are expected to heal in place when they can (e.g.
// re-login, drain unprocessed messages, dismiss dialogs); a check that
// keeps failing runs its own Escalate, with which the owner can
// rejuvenate (gracefully terminate and let the MDC restart it). The
// hosted hub runs one Stabilizer as its whole in-process supervisor:
// one check per shard is that shard's watchdog, escalating to a
// targeted restart of that shard.
//
// The paper's periods: the AreYouWorking callback every 3 minutes,
// communication-client sanity checks every minute, unprocessed dialog
// boxes every 20 seconds.
package stabilize

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
)

// Paper-derived default periods.
const (
	DefaultSanityPeriod = time.Minute
	DefaultDialogPeriod = 20 * time.Second
	// DefaultEscalateAfter is how many consecutive failures of one
	// check trigger escalation.
	DefaultEscalateAfter = 3
)

// Check is one registered invariant.
type Check struct {
	// Name identifies the check in journals and counters.
	Name string
	// Period is how often the check runs.
	Period time.Duration
	// Fn verifies the invariant, healing in place where possible. A
	// nil return means the invariant holds (or was restored).
	Fn func() error
	// EscalateAfter overrides DefaultEscalateAfter for this check; 0
	// means the default, negative means never escalate.
	EscalateAfter int
	// Escalate is called each time the check's failure streak grows by
	// another EscalateAfter — at the threshold, and again every
	// EscalateAfter failures for as long as the streak lasts, so an
	// escalation that could not act, or did not cure, is repeated. It
	// runs on the check's goroutine, so the check does not run again
	// until it returns. Nil: the failures are journaled and counted only.
	Escalate func(err error)
}

// entry is one registered check and its run state; streak and stats
// are under Stabilizer.mu, the Check is immutable once registered.
type entry struct {
	Check
	streak int // consecutive failures
	stats  CheckStats
}

// Stabilizer runs the registered checks. Create with New; register
// checks before Start.
type Stabilizer struct {
	clk     clock.Clock
	journal *faults.Journal

	mu      sync.Mutex
	checks  []*entry
	stop    chan struct{}
	started bool
	running sync.WaitGroup // the check goroutines; Wait blocks on it
}

// New builds a stabilizer that journals violations and escalations into
// journal, which may be nil.
func New(clk clock.Clock, journal *faults.Journal) (*Stabilizer, error) {
	if clk == nil {
		return nil, errors.New("stabilize: clock is required")
	}
	return &Stabilizer{clk: clk, journal: journal}, nil
}

// Register adds a check. It must be called before Start.
func (s *Stabilizer) Register(c Check) error {
	if c.Name == "" || c.Fn == nil {
		return errors.New("stabilize: check requires Name and Fn")
	}
	if c.Period <= 0 {
		return fmt.Errorf("stabilize: check %q has non-positive period", c.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("stabilize: cannot register after Start")
	}
	if s.find(c.Name) != nil {
		return fmt.Errorf("stabilize: duplicate check %q", c.Name)
	}
	s.checks = append(s.checks, &entry{Check: c, stats: CheckStats{Name: c.Name}})
	return nil
}

// find returns the named check, or nil; under mu.
func (s *Stabilizer) find(name string) *entry {
	for _, e := range s.checks {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Start launches one goroutine per check.
func (s *Stabilizer) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	stop := make(chan struct{})
	s.stop = stop
	checks := append([]*entry(nil), s.checks...)
	s.running.Add(len(checks))
	s.mu.Unlock()
	for _, e := range checks {
		s.clk.Go(func() { s.runCheck(e, stop) })
	}
}

// Stop halts all checks. It does not wait for a check that is inside
// its Fn or its Escalate — an escalation may stop the stabilizer it
// runs on (MyAlertBuddy's rejuvenation does) — so a caller that needs
// the plane gone follows it with Wait.
func (s *Stabilizer) Stop() {
	s.mu.Lock()
	if s.started && s.stop != nil {
		close(s.stop)
		clock.Notify(s.clk, s.stop)
		s.stop = nil
		s.started = false
	}
	s.mu.Unlock()
}

// Wait blocks until every check goroutine a Stop has halted is gone,
// including one that was inside its Fn or an escalation when Stop was
// called. It must not be called from a check or an Escalate.
func (s *Stabilizer) Wait() { s.running.Wait() }

// RunOnce executes the named check immediately (for tests and for
// forced stabilization after a replay). It returns the check's error.
func (s *Stabilizer) RunOnce(name string) error {
	s.mu.Lock()
	e := s.find(name)
	s.mu.Unlock()
	if e == nil {
		return fmt.Errorf("stabilize: no check named %q", name)
	}
	return s.execute(e)
}

// CheckStats is one check's lifetime counters.
type CheckStats struct {
	Name string `json:"name"`
	// Executions counts runs; Failures counts runs whose Fn returned an
	// error (in-place healing that succeeded returns nil and does not
	// count).
	Executions int64 `json:"executions"`
	Failures   int64 `json:"failures"`
	// Heals counts failure streaks ended by a subsequent passing run —
	// the invariant was violated and then restored.
	Heals int64 `json:"heals"`
	// Escalations counts a failure streak reaching the threshold, and
	// every further threshold's worth of failures in the same streak:
	// one call of Escalate each, when the check has one.
	Escalations int64 `json:"escalations"`
}

// Stats snapshots every registered check's counters, in registration
// order. Checks that have never run report zeros.
func (s *Stabilizer) Stats() []CheckStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CheckStats, len(s.checks))
	for i, e := range s.checks {
		out[i] = e.stats
	}
	return out
}

func (s *Stabilizer) runCheck(e *entry, stop chan struct{}) {
	defer s.running.Done()
	ticker := s.clk.NewTicker(e.Period)
	defer ticker.Stop()
	for {
		clock.Wait(s.clk, stop, ticker.C())
		select {
		case <-stop:
			return
		case <-ticker.C():
			_ = s.execute(e)
		}
	}
}

func (s *Stabilizer) execute(e *entry) error {
	err := e.Fn()
	threshold := cmp.Or(e.EscalateAfter, DefaultEscalateAfter)
	s.mu.Lock()
	e.stats.Executions++
	escalate := false
	if err != nil {
		e.stats.Failures++
		e.streak++
		if escalate = threshold > 0 && e.streak%threshold == 0; escalate {
			e.stats.Escalations++
		}
	} else if e.streak > 0 {
		// A streak of violations just ended with a passing run: the
		// invariant healed (in place or via escalation).
		e.stats.Heals++
		e.streak = 0
	}
	streak := e.streak
	s.mu.Unlock()
	if err != nil && s.journal != nil {
		s.journal.Recordf(s.clk.Now(), faults.KindFaultInjected, "invariant %q violated: %v", e.Name, err)
	}
	if escalate && e.Escalate != nil {
		if s.journal != nil {
			s.journal.Recordf(s.clk.Now(), faults.KindRejuvenation,
				"check %q failed %d consecutive times; escalating", e.Name, streak)
		}
		e.Escalate(err)
	}
	return err
}

// Progress tracks a heartbeat timestamp for liveness checks — the
// paper's "monitoring the timestamps of their progress". It takes no
// lock, so a check of a wedged component never blocks behind whatever
// wedged it. The zero value is ready to use but reports no progress
// until the first Beat.
type Progress struct {
	last atomic.Int64 // unix nanoseconds of the newest beat; 0 before the first
}

// Beat records progress at now; a beat older than the newest is ignored.
func (p *Progress) Beat(now time.Time) {
	n := now.UnixNano()
	for {
		old := p.last.Load()
		if n <= old || p.last.CompareAndSwap(old, n) {
			return
		}
	}
}

// Last returns the most recent beat (zero if none).
func (p *Progress) Last() time.Time {
	if n := p.last.Load(); n != 0 {
		return time.Unix(0, n)
	}
	return time.Time{}
}

// StaleBy reports whether the last beat is older than maxAge at now.
// A Progress with no beats yet is considered stale.
func (p *Progress) StaleBy(now time.Time, maxAge time.Duration) bool {
	last := p.Last()
	if last.IsZero() {
		return true
	}
	return now.Sub(last) > maxAge
}
