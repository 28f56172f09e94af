// Package mdc implements the Master Daemon Controller — the watchdog
// process that launches MyAlertBuddy, restarts it when it terminates,
// periodically probes it with a non-blocking AreYouWorking() call
// (signalled through event objects in the paper, modeled as a
// goroutine + timeout here), kills and restarts it when the probe goes
// unanswered, and reboots the machine when too many consecutive
// restarts fail.
package mdc

import (
	"errors"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
)

// Daemon is the process the MDC supervises. MyAlertBuddy implements it.
type Daemon interface {
	// Start launches a fresh incarnation. It returns an error when the
	// daemon cannot come up (e.g. the machine has no power).
	Start() error
	// Exited returns a channel closed when the current incarnation has
	// terminated, for any reason. It must reflect the incarnation
	// launched by the most recent successful Start.
	Exited() <-chan struct{}
	// Kill forcefully terminates the current incarnation. It must be
	// safe to call on an already-dead daemon.
	Kill()
	// AreYouWorking is the health callback. It may block indefinitely
	// when the daemon is hung — the MDC guards it with a reply timeout.
	AreYouWorking() bool
}

// Defaults for the controller, from Section 4.2.1: the AreYouWorking
// callback is invoked every three minutes.
const (
	DefaultProbePeriod  = 3 * time.Minute
	DefaultReplyTimeout = 30 * time.Second
	DefaultRestartDelay = 10 * time.Second
	DefaultMaxFailures  = 3
	DefaultBootTime     = 2 * time.Minute
)

// Config parameterizes a Controller.
type Config struct {
	// Clock drives all periods; required.
	Clock clock.Clock
	// Daemon is the supervised process; required.
	Daemon Daemon
	// ProbePeriod is how often AreYouWorking is invoked.
	ProbePeriod time.Duration
	// ReplyTimeout bounds how long the MDC waits for the reply event.
	ReplyTimeout time.Duration
	// RestartDelay is the pause before a restart attempt.
	RestartDelay time.Duration
	// MaxConsecutiveFailures is the failed-restart threshold beyond
	// which the MDC reboots the machine.
	MaxConsecutiveFailures int
	// Reboot performs the machine reboot; it should block until the
	// machine is back. Required when MaxConsecutiveFailures can be hit;
	// a nil Reboot makes the MDC keep retrying instead.
	Reboot func()
	// Journal records recovery actions. Optional.
	Journal *faults.Journal
}

// Controller is the watchdog. Create with New, drive with Run.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	running  bool
	stop     chan struct{}
	restarts int // total daemon restarts performed (not the first start)
	reboots  int
}

// New validates the config and returns a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Clock == nil || cfg.Daemon == nil {
		return nil, errors.New("mdc: Config requires Clock and Daemon")
	}
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = DefaultProbePeriod
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = DefaultReplyTimeout
	}
	if cfg.RestartDelay <= 0 {
		cfg.RestartDelay = DefaultRestartDelay
	}
	if cfg.MaxConsecutiveFailures <= 0 {
		cfg.MaxConsecutiveFailures = DefaultMaxFailures
	}
	return &Controller{cfg: cfg}, nil
}

// Restarts returns how many times the MDC restarted the daemon (probe
// failures and observed terminations, not counting the initial start).
func (c *Controller) Restarts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restarts
}

// Reboots returns how many machine reboots the MDC escalated to.
func (c *Controller) Reboots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reboots
}

// Start launches the supervision loop in its own goroutine.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	stop := make(chan struct{})
	c.stop = stop
	c.mu.Unlock()
	c.cfg.Clock.Go(func() { c.run(stop) })
}

// Stop ends supervision and kills the daemon.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	close(c.stop)
	clock.Notify(c.cfg.Clock, c.stop)
	c.mu.Unlock()
}

func (c *Controller) run(stop chan struct{}) {
	failures := 0
	first := true
	for {
		select {
		case <-stop:
			c.cfg.Daemon.Kill()
			return
		default:
		}
		if err := c.cfg.Daemon.Start(); err != nil {
			failures++
			c.journal(faults.KindDaemonRestart, "daemon start failed (%d consecutive): %v", failures, err)
			if failures >= c.cfg.MaxConsecutiveFailures && c.cfg.Reboot != nil {
				c.journal(faults.KindMachineReboot, "restart threshold reached; rebooting machine")
				c.mu.Lock()
				c.reboots++
				c.mu.Unlock()
				c.cfg.Reboot()
				failures = 0
			}
			if !c.sleepInterruptible(stop, c.cfg.RestartDelay) {
				return
			}
			continue
		}
		failures = 0
		if !first {
			c.mu.Lock()
			c.restarts++
			c.mu.Unlock()
		}
		first = false
		if !c.superviseIncarnation(stop) {
			return
		}
		if !c.sleepInterruptible(stop, c.cfg.RestartDelay) {
			return
		}
	}
}

// superviseIncarnation watches one incarnation until it dies or is
// killed for failing a probe. It returns false when the controller is
// stopping.
func (c *Controller) superviseIncarnation(stop chan struct{}) bool {
	clk := c.cfg.Clock
	exited := c.cfg.Daemon.Exited()
	ticker := clk.NewTicker(c.cfg.ProbePeriod)
	defer ticker.Stop()
	for {
		clock.Wait(clk, stop, exited, ticker.C())
		select {
		case <-stop:
			c.cfg.Daemon.Kill()
			return false
		case <-exited:
			c.journal(faults.KindDaemonRestart, "daemon terminated; restarting")
			return true
		case <-ticker.C():
			if c.probe(exited) {
				continue
			}
			c.journal(faults.KindDaemonRestart, "AreYouWorking probe failed; killing and restarting daemon")
			c.cfg.Daemon.Kill()
			// Wait for termination so the next Start is clean.
			clock.Wait(clk, exited, stop)
			select {
			case <-exited:
			case <-stop:
				return false
			}
			return true
		}
	}
}

// probe performs the event-object handshake: trigger the client thread
// (a goroutine) to invoke AreYouWorking inside the daemon, and wait
// for the reply event no longer than ReplyTimeout.
func (c *Controller) probe(exited <-chan struct{}) bool {
	clk := c.cfg.Clock
	reply := make(chan bool, 1)
	clk.Go(func() {
		reply <- c.cfg.Daemon.AreYouWorking()
		clock.Notify(clk, reply)
	})
	timer := clk.NewTimer(c.cfg.ReplyTimeout)
	defer timer.Stop()
	clock.Wait(clk, reply, timer.C(), exited)
	select {
	case ok := <-reply:
		return ok
	case <-timer.C():
		return false
	case <-exited:
		// Died mid-probe; the supervision loop will see Exited too.
		return false
	}
}

// sleepInterruptible waits d, returning false if stopped first.
func (c *Controller) sleepInterruptible(stop chan struct{}, d time.Duration) bool {
	timer := c.cfg.Clock.NewTimer(d)
	defer timer.Stop()
	clock.Wait(c.cfg.Clock, stop, timer.C())
	select {
	case <-stop:
		c.cfg.Daemon.Kill()
		return false
	case <-timer.C():
		return true
	}
}

func (c *Controller) journal(kind faults.Kind, format string, args ...any) {
	if c.cfg.Journal != nil {
		c.cfg.Journal.Recordf(c.cfg.Clock.Now(), kind, format, args...)
	}
}
