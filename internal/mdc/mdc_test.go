package mdc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/faults"
)

// fakeDaemon is a controllable Daemon implementation.
type fakeDaemon struct {
	clk        clock.Clock
	mu         sync.Mutex
	startErr   error
	startCount int
	exited     chan struct{}
	alive      bool
	hung       bool // AreYouWorking blocks until killed
	healthy    bool // AreYouWorking return value when not hung
}

func newFakeDaemon(clk clock.Clock) *fakeDaemon {
	return &fakeDaemon{clk: clk, healthy: true}
}

func (d *fakeDaemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.startErr != nil {
		return d.startErr
	}
	d.startCount++
	d.exited = make(chan struct{})
	d.alive = true
	d.hung = false
	return nil
}

func (d *fakeDaemon) Exited() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.exited
}

func (d *fakeDaemon) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dieLocked()
}

func (d *fakeDaemon) dieLocked() {
	if d.alive {
		d.alive = false
		close(d.exited)
		clock.Notify(d.clk, d.exited)
	}
}

// crash simulates the daemon terminating on its own.
func (d *fakeDaemon) crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dieLocked()
}

func (d *fakeDaemon) hang() {
	d.mu.Lock()
	d.hung = true
	d.mu.Unlock()
}

func (d *fakeDaemon) setStartErr(err error) {
	d.mu.Lock()
	d.startErr = err
	d.mu.Unlock()
}

func (d *fakeDaemon) starts() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.startCount
}

func (d *fakeDaemon) isAlive() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alive
}

func (d *fakeDaemon) AreYouWorking() bool {
	d.mu.Lock()
	hung := d.hung
	exited := d.exited
	healthy := d.healthy
	d.mu.Unlock()
	if hung {
		clock.Wait(d.clk, exited) // blocks until killed
		return false
	}
	return healthy
}

func newController(t *testing.T, sim *clock.Sim, d Daemon, j *faults.Journal, reboot func()) *Controller {
	t.Helper()
	c, err := New(Config{
		Clock:                  sim,
		Daemon:                 d,
		ProbePeriod:            3 * time.Minute,
		ReplyTimeout:           30 * time.Second,
		RestartDelay:           10 * time.Second,
		MaxConsecutiveFailures: 3,
		Reboot:                 reboot,
		Journal:                j,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Clock: clock.NewSim(time.Time{})}); err == nil {
		t.Fatal("missing daemon accepted")
	}
}

func TestStartLaunchesDaemon(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	c := newController(t, sim, d, nil, nil)
	c.Start()
	defer c.Stop()
	c.Start() // idempotent
	if !sim.RunUntil(func() bool { return d.starts() == 1 && d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if c.Restarts() != 0 {
		t.Fatalf("Restarts() = %d after initial start", c.Restarts())
	}
}

func TestRestartAfterTermination(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	j := &faults.Journal{}
	c := newController(t, sim, d, j, nil)
	c.Start()
	defer c.Stop()
	if !sim.RunUntil(func() bool { return d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	d.crash()
	if !sim.RunUntil(func() bool { return d.starts() == 2 && d.isAlive() }, 5*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if c.Restarts() != 1 {
		t.Fatalf("Restarts() = %d", c.Restarts())
	}
	if j.Count(faults.KindDaemonRestart) == 0 {
		t.Fatal("restart not journaled")
	}
}

func TestHungDaemonKilledAndRestarted(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	j := &faults.Journal{}
	c := newController(t, sim, d, j, nil)
	c.Start()
	defer c.Stop()
	if !sim.RunUntil(func() bool { return d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	d.hang()
	// Probe at +3min, reply timeout +30s, restart delay +10s.
	if !sim.RunUntil(func() bool { return d.starts() == 2 && d.isAlive() }, 30*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	if j.CountMatching(faults.KindDaemonRestart, "AreYouWorking") == 0 {
		t.Fatal("probe failure not journaled")
	}
}

func TestUnhealthyReplyTriggersRestart(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	c := newController(t, sim, d, nil, nil)
	c.Start()
	defer c.Stop()
	if !sim.RunUntil(func() bool { return d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	d.mu.Lock()
	d.healthy = false
	d.mu.Unlock()
	if !sim.RunUntil(func() bool { return d.starts() >= 2 }, 30*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
}

func TestHealthyDaemonNotRestarted(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	c := newController(t, sim, d, nil, nil)
	c.Start()
	defer c.Stop()
	if !sim.RunUntil(func() bool { return d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	// Survive many probe periods.
	sim.RunFor(20*time.Minute, time.Minute)
	if got := d.starts(); got != 1 {
		t.Fatalf("healthy daemon restarted %d times", got-1)
	}
}

func TestRebootAfterRepeatedStartFailures(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	d.setStartErr(errors.New("no power"))
	j := &faults.Journal{}
	var mu sync.Mutex
	rebooted := 0
	reboot := func() {
		mu.Lock()
		rebooted++
		n := rebooted
		mu.Unlock()
		if n >= 1 {
			d.setStartErr(nil) // power back after reboot
		}
		sim.Sleep(DefaultBootTime)
	}
	c := newController(t, sim, d, j, reboot)
	c.Start()
	defer c.Stop()
	if !sim.RunUntil(func() bool { return d.isAlive() }, 30*time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	mu.Lock()
	got := rebooted
	mu.Unlock()
	if got != 1 || c.Reboots() != 1 {
		t.Fatalf("rebooted %d times, controller says %d", got, c.Reboots())
	}
	if j.Count(faults.KindMachineReboot) != 1 {
		t.Fatal("reboot not journaled")
	}
}

func TestStopKillsDaemon(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	d := newFakeDaemon(sim)
	c := newController(t, sim, d, nil, nil)
	c.Start()
	if !sim.RunUntil(func() bool { return d.isAlive() }, time.Second, time.Hour) {
		t.Fatal("condition not reached")
	}
	c.Stop()
	c.Stop() // idempotent
	sim.Advance(0)
	if d.isAlive() {
		t.Fatal("Stop left the daemon alive")
	}
}
