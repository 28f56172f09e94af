// Package stabilize implements MyAlertBuddy's self-stabilization: a
// registry of invariant checks, each run on its own period, that
// detect and correct violations instead of trying to anticipate every
// failure. Checks are expected to heal in place when they can (e.g.
// re-login, drain unprocessed messages, dismiss dialogs); a check that
// keeps failing is escalated so the owner can rejuvenate (gracefully
// terminate and let the MDC restart it). The hosted hub runs one
// Stabilizer as its whole in-process supervisor: one check per shard
// is that shard's watchdog, escalating to a targeted shard restart.
//
// The paper's periods: the AreYouWorking callback every 3 minutes,
// communication-client sanity checks every minute, unprocessed dialog
// boxes every 20 seconds.
package stabilize

import (
	"errors"
	"fmt"
	"sync"
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
}

// Stabilizer runs the registered checks. Create with New; register
// checks before Start.
type Stabilizer struct {
	clk      clock.Clock
	journal  *faults.Journal
	escalate func(check string, err error)

	mu          sync.Mutex
	checks      []Check
	fails       map[string]int
	counts      map[string]int64 // executions per check
	failCounts  map[string]int64 // failures observed per check
	heals       map[string]int64 // failure streaks ended by a passing run
	escalations map[string]int64 // escalate calls: one per EscalateAfter consecutive failures
	stop        chan struct{}
	started     bool
	running     sync.WaitGroup // the check goroutines; Wait blocks on it
}

// New builds a stabilizer. escalate is called each time a check's
// failure streak grows by another EscalateAfter — at the threshold, and
// again every EscalateAfter failures for as long as the streak lasts,
// so an escalation that could not act, or did not cure, is repeated. It
// runs on the failing check's goroutine, so that check does not run
// again until it returns. It may be nil. journal may be nil.
func New(clk clock.Clock, journal *faults.Journal, escalate func(check string, err error)) (*Stabilizer, error) {
	if clk == nil {
		return nil, errors.New("stabilize: clock is required")
	}
	return &Stabilizer{
		clk:         clk,
		journal:     journal,
		escalate:    escalate,
		fails:       make(map[string]int),
		counts:      make(map[string]int64),
		failCounts:  make(map[string]int64),
		heals:       make(map[string]int64),
		escalations: make(map[string]int64),
	}, nil
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
	for _, existing := range s.checks {
		if existing.Name == c.Name {
			return fmt.Errorf("stabilize: duplicate check %q", c.Name)
		}
	}
	s.checks = append(s.checks, c)
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
	checks := append([]Check(nil), s.checks...)
	s.running.Add(len(checks))
	s.mu.Unlock()
	for _, c := range checks {
		go s.runCheck(c, stop)
	}
}

// Stop halts all checks. It does not wait for a check that is inside
// its Fn or the escalate callback — an escalation may stop the
// stabilizer it runs on (MyAlertBuddy's rejuvenation does) — so a
// caller that needs the plane gone follows it with Wait.
func (s *Stabilizer) Stop() {
	s.mu.Lock()
	if s.started && s.stop != nil {
		close(s.stop)
		s.stop = nil
		s.started = false
	}
	s.mu.Unlock()
}

// Wait blocks until every check goroutine a Stop has halted is gone,
// including one that was inside its Fn or an escalation when Stop was
// called. It must not be called from a check or the escalate callback.
func (s *Stabilizer) Wait() { s.running.Wait() }

// RunOnce executes the named check immediately (for tests and for
// forced stabilization after a replay). It returns the check's error.
func (s *Stabilizer) RunOnce(name string) error {
	s.mu.Lock()
	var found *Check
	for i := range s.checks {
		if s.checks[i].Name == name {
			found = &s.checks[i]
			break
		}
	}
	s.mu.Unlock()
	if found == nil {
		return fmt.Errorf("stabilize: no check named %q", name)
	}
	return s.execute(*found)
}

// Executions returns how many times the named check has run.
func (s *Stabilizer) Executions(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// Failures returns how many failures the named check has observed.
func (s *Stabilizer) Failures(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failCounts[name]
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
	// Escalations counts calls of the escalate callback: one when a
	// failure streak reaches the threshold and one more for every further
	// threshold's worth of failures in the same streak.
	Escalations int64 `json:"escalations"`
}

// Stats snapshots every registered check's counters, in registration
// order. Checks that have never run report zeros.
func (s *Stabilizer) Stats() []CheckStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CheckStats, len(s.checks))
	for i := range s.checks {
		name := s.checks[i].Name
		out[i] = CheckStats{
			Name:        name,
			Executions:  s.counts[name],
			Failures:    s.failCounts[name],
			Heals:       s.heals[name],
			Escalations: s.escalations[name],
		}
	}
	return out
}

func (s *Stabilizer) runCheck(c Check, stop chan struct{}) {
	defer s.running.Done()
	ticker := s.clk.NewTicker(c.Period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C():
			_ = s.execute(c)
		}
	}
}

func (s *Stabilizer) execute(c Check) error {
	err := c.Fn()
	s.mu.Lock()
	s.counts[c.Name]++
	threshold := c.EscalateAfter
	if threshold == 0 {
		threshold = DefaultEscalateAfter
	}
	var escalateNow bool
	streak := 0
	if err != nil {
		s.failCounts[c.Name]++
		s.fails[c.Name]++
		streak = s.fails[c.Name]
		if threshold > 0 && streak%threshold == 0 {
			escalateNow = true
			s.escalations[c.Name]++
		}
	} else {
		if s.fails[c.Name] > 0 {
			// A streak of violations just ended with a passing run: the
			// invariant healed (in place or via escalation).
			s.heals[c.Name]++
		}
		s.fails[c.Name] = 0
	}
	escalate := s.escalate
	s.mu.Unlock()
	if err != nil && s.journal != nil {
		s.journal.Recordf(s.clk.Now(), faults.KindFaultInjected, "invariant %q violated: %v", c.Name, err)
	}
	if escalateNow && escalate != nil {
		if s.journal != nil {
			s.journal.Recordf(s.clk.Now(), faults.KindRejuvenation,
				"check %q failed %d consecutive times; escalating", c.Name, streak)
		}
		escalate(c.Name, err)
	}
	return err
}

// Progress tracks a heartbeat timestamp for liveness checks — the
// paper's "monitoring the timestamps of their progress". The zero
// value is ready to use but reports no progress until the first Beat.
type Progress struct {
	mu   sync.Mutex
	last time.Time
}

// Beat records progress at now.
func (p *Progress) Beat(now time.Time) {
	p.mu.Lock()
	if now.After(p.last) {
		p.last = now
	}
	p.mu.Unlock()
}

// Last returns the most recent beat (zero if none).
func (p *Progress) Last() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
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
