package commgr

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/automation"
	"simba/internal/faults"
)

// managed is one client's manager as the contract rows drive it, with
// the client-specific ways to reach and fault its current instance.
type managed struct {
	Start, Sanity, EnsureHealthy func() error
	UnreadCount                  func() (int, error)
	proc                         func() *automation.Proc
	connected                    func() (bool, error)
	drop                         func() // lose the connection in place
	hangProbe                    func() // the next basic-operation probe finds the client hung
	outage                       *faults.Flag
}

// contractClient is one of the two clients every contract row runs on.
type contractClient struct {
	name string
	// outageFails: an outage keeps Sanity from reconnecting (the IM
	// service refuses logins; the email client reaches its mailbox
	// without the service).
	outageFails bool
	relogin     string // the journal line of a connection healed in place
	build       func(t *testing.T, f *fixture, startupDelay time.Duration) managed
}

var contractClients = []contractClient{
	{
		name: "im", outageFails: true,
		relogin: "im client for buddy was logged out; re-login succeeded",
		build: func(t *testing.T, f *fixture, delay time.Duration) managed {
			if err := f.imSvc.Register("buddy"); err != nil {
				t.Fatal(err)
			}
			m, err := NewIMManager(IMManagerConfig{Clock: f.sim, Machine: f.machine, Service: f.imSvc,
				Handle: "buddy", CallTimeout: 10 * time.Second, StartupDelay: delay, Journal: f.journal})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Stop)
			probe := m.probe
			return managed{
				Start: m.Start, Sanity: m.Sanity, EnsureHealthy: m.EnsureHealthy,
				UnreadCount: m.UnreadCount,
				proc:        func() *automation.Proc { return m.App().Proc },
				connected:   func() (bool, error) { return m.App().LoggedIn() },
				drop:        func() { f.imSvc.ForceLogout("buddy") },
				hangProbe: func() {
					m.probe = func(app *automation.IMClientApp) error { app.Hang(); return probe(app) }
				},
				outage: f.imSvc.Outage(),
			}
		},
	},
	{
		name:    "email",
		relogin: "email client for buddy@sim was disconnected; reconnect succeeded",
		build: func(t *testing.T, f *fixture, delay time.Duration) managed {
			if _, err := f.emSvc.CreateMailbox("buddy@sim"); err != nil {
				t.Fatal(err)
			}
			m, err := NewEmailManager(EmailManagerConfig{Clock: f.sim, Machine: f.machine, Service: f.emSvc,
				Address: "buddy@sim", CallTimeout: 10 * time.Second, StartupDelay: delay, Journal: f.journal})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Stop)
			probe := m.probe
			return managed{
				Start: m.Start, Sanity: m.Sanity, EnsureHealthy: m.EnsureHealthy,
				UnreadCount: m.UnreadCount,
				proc:        func() *automation.Proc { return m.App().Proc },
				connected:   func() (bool, error) { return m.App().Connected() },
				drop: func() {
					if err := m.App().Disconnect(); err != nil {
						t.Fatal(err)
					}
				},
				hangProbe: func() {
					m.probe = func(app *automation.EmailClientApp) error { app.Hang(); return probe(app) }
				},
				outage: f.emSvc.Outage(),
			}
		},
	},
}

// TestManagerContract runs the exception-handling contract every
// Communication Manager keeps — sanity checking, shutdown/restart, the
// call timeout and the startup delay — as rows against both clients.
func TestManagerContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, f *fixture, c contractClient, m managed)
	}{
		{"SanityHealsLostConnection", func(t *testing.T, f *fixture, c contractClient, m managed) {
			m.drop()
			if err := m.Sanity(); err != nil {
				t.Fatalf("Sanity = %v", err)
			}
			assertConnected(t, m)
			assertJournal(t, f, faults.KindRelogin, c.relogin)
		}},
		{"SanityFindsHangUnfixable", func(t *testing.T, f *fixture, c contractClient, m managed) {
			m.proc().Hang()
			if err := stepDuring(t, f, 11*time.Second, m.Sanity); !errors.Is(err, ErrClientHung) || !Unfixable(err) {
				t.Fatalf("Sanity on a hung client = %v, want an unfixable ErrClientHung", err)
			}
		}},
		{"ProbeHangTimesOut", func(t *testing.T, f *fixture, c contractClient, m managed) {
			m.hangProbe()
			if err := stepDuring(t, f, 11*time.Second, m.Sanity); !errors.Is(err, ErrClientHung) {
				t.Fatalf("Sanity with a hung probe = %v, want ErrClientHung", err)
			}
		}},
		{"EnsureHealthyRestartsHungClient", func(t *testing.T, f *fixture, c contractClient, m managed) {
			old := m.proc()
			old.Hang()
			// Just past the hung call's 10 s timeout, and no further: the
			// restart needs no virtual time, and a longer step could fire
			// its connect's own timeout before the connect's goroutine
			// has run.
			if err := stepDuring(t, f, 11*time.Second, m.EnsureHealthy); err != nil {
				t.Fatalf("EnsureHealthy = %v", err)
			}
			if m.proc().PID() == old.PID() {
				t.Fatal("client was not restarted")
			}
			if old.Running() {
				t.Fatal("the hung instance was left running")
			}
			assertJournal(t, f, faults.KindClientRestart, fmt.Sprintf("%s client pid %d killed and restarted", c.name, old.PID()))
			assertConnected(t, m)
		}},
		{"EnsureHealthyRestartsDeadClient", func(t *testing.T, f *fixture, c contractClient, m managed) {
			old := m.proc()
			old.Crash()
			if _, err := m.UnreadCount(); !errors.Is(err, automation.ErrStaleHandle) || !Unfixable(err) {
				t.Fatalf("UnreadCount on a crashed client = %v, want ErrStaleHandle", err)
			}
			if err := m.Sanity(); !errors.Is(err, ErrClientDead) {
				t.Fatalf("Sanity on a crashed client = %v, want ErrClientDead", err)
			}
			if err := m.EnsureHealthy(); err != nil {
				t.Fatalf("EnsureHealthy = %v", err)
			}
			if m.proc().PID() == old.PID() || !m.proc().Running() {
				t.Fatal("client not relaunched")
			}
			assertConnected(t, m)
		}},
		{"EnsureHealthyLeavesHealthyClient", func(t *testing.T, f *fixture, c contractClient, m managed) {
			pid := m.proc().PID()
			if err := m.EnsureHealthy(); err != nil {
				t.Fatalf("EnsureHealthy = %v", err)
			}
			if m.proc().PID() != pid || f.journal.Len() != 0 {
				t.Fatalf("healthy client touched: pid %d → %d, journal %v", pid, m.proc().PID(), f.journal.Entries())
			}
		}},
		{"ServiceOutageIsTransient", func(t *testing.T, f *fixture, c contractClient, m managed) {
			pid := m.proc().PID()
			m.outage.Set(true, f.sim.Now())
			m.drop()
			err := m.Sanity()
			if c.outageFails && err == nil {
				t.Fatal("Sanity succeeded during outage")
			}
			if Unfixable(err) {
				t.Fatalf("outage classified unfixable: %v", err)
			}
			if err := m.EnsureHealthy(); Unfixable(err) || m.proc().PID() != pid {
				t.Fatalf("EnsureHealthy during outage = %v, pid %d → %d", err, pid, m.proc().PID())
			}
			m.outage.Set(false, f.sim.Now())
			if err := m.Sanity(); err != nil {
				t.Fatalf("Sanity after outage = %v", err)
			}
			assertConnected(t, m)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, c := range contractClients {
				t.Run(c.name, func(t *testing.T) {
					f := newFixture(t)
					m := c.build(t, f, -1)
					if err := m.Start(); err != nil {
						t.Fatal(err)
					}
					row.run(t, f, c, m)
				})
			}
		})
	}
	// Launching takes StartupDelay of virtual time, before Start returns.
	t.Run("StartupDelayConsumesVirtualTime", func(t *testing.T) {
		for _, c := range contractClients {
			t.Run(c.name, func(t *testing.T) {
				f := newFixture(t)
				m := c.build(t, f, 3*time.Second)
				var done atomic.Bool
				f.sim.Go(func() {
					if err := m.Start(); err != nil {
						t.Error(err)
					}
					done.Store(true)
				})
				f.sim.Advance(2 * time.Second)
				if done.Load() {
					t.Fatal("Start returned without consuming startup delay")
				}
				f.sim.Advance(2 * time.Second)
				if !done.Load() {
					t.Fatal("Start still running after its startup delay")
				}
				assertConnected(t, m)
			})
		}
	})
}

// stepDuring runs op as an actor while the clock advances d, and
// returns op's error. A call the manager bounds by its call timeout has
// returned by then.
func stepDuring(t *testing.T, f *fixture, d time.Duration, op func() error) error {
	t.Helper()
	var returned atomic.Bool
	var err error
	f.sim.Go(func() {
		err = op()
		returned.Store(true)
	})
	f.sim.Advance(d)
	if !returned.Load() {
		t.Fatal("call still blocked past its call timeout")
	}
	return err
}

func assertConnected(t *testing.T, m managed) {
	t.Helper()
	if ok, err := m.connected(); err != nil || !ok {
		t.Fatalf("connected = %v, %v", ok, err)
	}
}

// assertJournal checks that the journal holds exactly one entry of kind,
// reading detail.
func assertJournal(t *testing.T, f *fixture, kind faults.Kind, detail string) {
	t.Helper()
	var got []string
	for _, e := range f.journal.Entries() {
		if e.Kind == kind {
			got = append(got, e.Detail)
		}
	}
	if len(got) != 1 || got[0] != detail {
		t.Fatalf("%s journal entries = %q, want [%q]", kind, got, detail)
	}
}
