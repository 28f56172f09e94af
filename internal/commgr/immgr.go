package commgr

import (
	"errors"
	"sync"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/faults"
	"simba/internal/im"
)

// IMManagerConfig parameterizes an IMManager.
type IMManagerConfig struct {
	// Clock drives timeouts and startup delays; required.
	Clock clock.Clock
	// Machine hosts the client software; required.
	Machine *automation.Machine
	// Service is the IM service the client talks to; required.
	Service *im.Service
	// Handle is the IM account the manager operates; required.
	Handle string
	// CallTimeout bounds individual automation calls (default
	// DefaultCallTimeout).
	CallTimeout time.Duration
	// StartupDelay is the virtual time launching the client takes
	// (default DefaultStartupDelay).
	StartupDelay time.Duration
	// Journal records recovery actions. Optional.
	Journal *faults.Journal
	// OnLaunch, if set, runs against every freshly launched client
	// instance (fault injectors use it to re-arm ambient faults).
	OnLaunch func(*automation.IMClientApp)
	// MonkeyPairs extends the monkey thread's dismissal table beyond
	// SystemPairs plus the IM client's own known dialogs.
	MonkeyPairs []CaptionButton
	// MonkeyPeriod overrides the 20s dialog sweep period.
	MonkeyPeriod time.Duration
}

// IMClientPairs are the caption-button pairs specific to the IM client
// software.
func IMClientPairs() []CaptionButton {
	return []CaptionButton{
		{Caption: "Connection Error", Button: "OK"},
		{Caption: "Signed In Elsewhere", Button: "OK"},
		{Caption: "Service Announcement", Button: "Close"},
	}
}

// IMManager drives the IM client software and keeps it healthy.
type IMManager struct {
	clk          clock.Clock
	machine      *automation.Machine
	svc          *im.Service
	handle       string
	callTimeout  time.Duration
	startupDelay time.Duration
	journal      *faults.Journal
	onLaunch     func(*automation.IMClientApp)
	monkey       *Monkey

	mu  sync.Mutex
	app *automation.IMClientApp
}

// NewIMManager builds a manager. The client software is not launched
// until Start (or the first Restart).
func NewIMManager(cfg IMManagerConfig) (*IMManager, error) {
	if cfg.Clock == nil || cfg.Machine == nil || cfg.Service == nil {
		return nil, errors.New("commgr: IMManagerConfig requires Clock, Machine, and Service")
	}
	if cfg.Handle == "" {
		return nil, errors.New("commgr: IMManagerConfig requires Handle")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	switch {
	case cfg.StartupDelay == 0:
		cfg.StartupDelay = DefaultStartupDelay
	case cfg.StartupDelay < 0: // explicit "no delay"
		cfg.StartupDelay = 0
	}
	pairs := append(SystemPairs(), IMClientPairs()...)
	pairs = append(pairs, cfg.MonkeyPairs...)
	return &IMManager{
		clk:          cfg.Clock,
		machine:      cfg.Machine,
		svc:          cfg.Service,
		handle:       cfg.Handle,
		callTimeout:  cfg.CallTimeout,
		startupDelay: cfg.StartupDelay,
		journal:      cfg.Journal,
		onLaunch:     cfg.OnLaunch,
		monkey:       NewMonkey(cfg.Clock, cfg.Machine.Desktop(), cfg.MonkeyPeriod, cfg.Journal, pairs...),
	}, nil
}

// Handle returns the managed IM handle.
func (m *IMManager) Handle() string { return m.handle }

// Monkey returns the manager's dialog-handling thread, so callers can
// register environment-specific caption-button pairs.
func (m *IMManager) Monkey() *Monkey { return m.monkey }

// App returns the current client instance (nil before Start). Tests
// and fault injectors use it.
func (m *IMManager) App() *automation.IMClientApp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app
}

// Start launches the client software, logs in, and starts the monkey
// thread.
func (m *IMManager) Start() error {
	m.monkey.Start()
	return m.Restart()
}

// Stop shuts down the client software and the monkey thread.
func (m *IMManager) Stop() {
	m.monkey.Stop()
	m.mu.Lock()
	app := m.app
	m.app = nil
	m.mu.Unlock()
	if app != nil {
		app.Kill()
	}
}

// Restart implements the Shutdown/Restart API: terminate the current
// client instance, launch a fresh one (which takes StartupDelay of
// virtual time), log it in, and refresh all pointers.
func (m *IMManager) Restart() error {
	m.mu.Lock()
	old := m.app
	m.mu.Unlock()
	if old != nil {
		old.Kill()
		journalRecordf(m.journal, m.clk, faults.KindClientRestart,
			"im client pid %d killed and restarted", old.PID())
	}
	m.clk.Sleep(m.startupDelay)
	app, err := automation.LaunchIMClient(m.machine, m.svc, m.handle)
	if err != nil {
		return wrap("launch im client", err)
	}
	if m.onLaunch != nil {
		m.onLaunch(app)
	}
	m.mu.Lock()
	m.app = app
	m.mu.Unlock()
	// Logging in may legitimately fail during a service outage; the
	// client is still freshly launched, and the next sanity check will
	// re-login once the service returns.
	if err := m.login(app); err != nil && !errors.Is(err, im.ErrServiceUnavailable) {
		return wrap("login after restart", err)
	}
	return nil
}

func (m *IMManager) login(app *automation.IMClientApp) error {
	_, err := callTimeout(m.clk, m.callTimeout, errOnly(app.Login))
	return err
}

// Sanity implements the Sanity-Checking API. It verifies, in order:
// process liveness and pointer validity; logged-in state, re-logging
// in when the client was logged out (journaled as a re-login); and the
// ability to perform a basic operation (a presence query for the
// manager's own handle). A nil return means healthy or healed in
// place; use Unfixable on the returned error to decide whether Restart
// is needed.
func (m *IMManager) Sanity() error {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil || !app.Running() {
		return ErrClientDead
	}
	loggedIn, err := callTimeout(m.clk, m.callTimeout, app.LoggedIn)
	if err != nil {
		return wrap("sanity: logged-in check", err)
	}
	if !loggedIn {
		if err := m.login(app); err != nil {
			return wrap("sanity: re-login", err)
		}
		journalRecordf(m.journal, m.clk, faults.KindRelogin,
			"im client for %s was logged out; re-login succeeded", m.handle)
	}
	// Basic-operation probe: can we obtain buddy status?
	_, err = callTimeout(m.clk, m.callTimeout, func() (im.Status, error) {
		return app.BuddyStatus(m.handle)
	})
	if err != nil {
		return wrap("sanity: status probe", err)
	}
	return nil
}

// EnsureHealthy runs Sanity and applies the restart API when the
// verdict is unfixable. It reports the terminal error, if any.
func (m *IMManager) EnsureHealthy() error {
	err := m.Sanity()
	if err == nil {
		return nil
	}
	if !Unfixable(err) {
		return err // transient (e.g. service outage): retry later
	}
	if rerr := m.Restart(); rerr != nil {
		return rerr
	}
	return nil
}

// Send transmits text to an IM handle through the client software,
// returning the message sequence number.
func (m *IMManager) Send(to, text string) (uint64, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, func() (uint64, error) {
		return app.SendMessage(to, text)
	})
}

// BuddyStatus queries presence through the client software.
func (m *IMManager) BuddyStatus(handle string) (im.Status, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, func() (im.Status, error) {
		return app.BuddyStatus(handle)
	})
}

// FetchNew drains newly received IMs.
func (m *IMManager) FetchNew() ([]im.Message, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return nil, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, app.FetchNew)
}

// UnreadCount reports IMs received but not yet fetched — the
// self-stabilization "unprocessed IMs" invariant input.
func (m *IMManager) UnreadCount() (int, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, app.UnreadCount)
}

// Events returns the current client instance's new-IM event channel.
// After a Restart the channel changes; long-lived consumers should
// re-fetch it, or rely on polling via FetchNew.
func (m *IMManager) Events() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.app == nil {
		return nil
	}
	return m.app.Events()
}

// MemoryMB reports the client process's working set, for resource-
// consumption invariants.
func (m *IMManager) MemoryMB() float64 {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0
	}
	return app.MemoryMB()
}
