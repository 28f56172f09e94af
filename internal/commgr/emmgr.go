package commgr

import (
	"errors"
	"sync"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/email"
	"simba/internal/faults"
)

// EmailManagerConfig parameterizes an EmailManager.
type EmailManagerConfig struct {
	// Clock drives timeouts and startup delays; required.
	Clock clock.Clock
	// Machine hosts the client software; required.
	Machine *automation.Machine
	// Service is the email service; required.
	Service *email.Service
	// Address is the mailbox the manager operates; required.
	Address string
	// CallTimeout bounds individual automation calls (default
	// DefaultCallTimeout).
	CallTimeout time.Duration
	// StartupDelay is the virtual launch time (default
	// DefaultStartupDelay; negative means none).
	StartupDelay time.Duration
	// Journal records recovery actions. Optional.
	Journal *faults.Journal
	// OnLaunch runs against every freshly launched client instance.
	OnLaunch func(*automation.EmailClientApp)
	// MonkeyPairs extends the dismissal table.
	MonkeyPairs []CaptionButton
	// MonkeyPeriod overrides the 20s dialog sweep period.
	MonkeyPeriod time.Duration
}

// EmailClientPairs are the caption-button pairs specific to the email
// client software.
func EmailClientPairs() []CaptionButton {
	return []CaptionButton{
		{Caption: "Send Error", Button: "OK"},
		{Caption: "Server Unavailable", Button: "Retry"},
		{Caption: "Mailbox Full", Button: "OK"},
	}
}

// EmailManager drives the email client software and keeps it healthy.
type EmailManager struct {
	clk          clock.Clock
	machine      *automation.Machine
	svc          *email.Service
	address      string
	callTimeout  time.Duration
	startupDelay time.Duration
	journal      *faults.Journal
	onLaunch     func(*automation.EmailClientApp)
	monkey       *Monkey

	mu  sync.Mutex
	app *automation.EmailClientApp
}

// NewEmailManager builds a manager; the client launches on Start.
func NewEmailManager(cfg EmailManagerConfig) (*EmailManager, error) {
	if cfg.Clock == nil || cfg.Machine == nil || cfg.Service == nil {
		return nil, errors.New("commgr: EmailManagerConfig requires Clock, Machine, and Service")
	}
	if cfg.Address == "" {
		return nil, errors.New("commgr: EmailManagerConfig requires Address")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	switch {
	case cfg.StartupDelay == 0:
		cfg.StartupDelay = DefaultStartupDelay
	case cfg.StartupDelay < 0:
		cfg.StartupDelay = 0
	}
	pairs := append(SystemPairs(), EmailClientPairs()...)
	pairs = append(pairs, cfg.MonkeyPairs...)
	return &EmailManager{
		clk:          cfg.Clock,
		machine:      cfg.Machine,
		svc:          cfg.Service,
		address:      cfg.Address,
		callTimeout:  cfg.CallTimeout,
		startupDelay: cfg.StartupDelay,
		journal:      cfg.Journal,
		onLaunch:     cfg.OnLaunch,
		monkey:       NewMonkey(cfg.Clock, cfg.Machine.Desktop(), cfg.MonkeyPeriod, cfg.Journal, pairs...),
	}, nil
}

// Address returns the managed mailbox address.
func (m *EmailManager) Address() string { return m.address }

// Monkey returns the manager's dialog-handling thread.
func (m *EmailManager) Monkey() *Monkey { return m.monkey }

// App returns the current client instance (nil before Start).
func (m *EmailManager) App() *automation.EmailClientApp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app
}

// Start launches the client software, connects it, and starts the
// monkey thread.
func (m *EmailManager) Start() error {
	m.monkey.Start()
	return m.Restart()
}

// Stop shuts down the client software and the monkey thread.
func (m *EmailManager) Stop() {
	m.monkey.Stop()
	m.mu.Lock()
	app := m.app
	m.app = nil
	m.mu.Unlock()
	if app != nil {
		app.Kill()
	}
}

// Restart implements the Shutdown/Restart API for the email client.
func (m *EmailManager) Restart() error {
	m.mu.Lock()
	old := m.app
	m.mu.Unlock()
	if old != nil {
		old.Kill()
		journalRecordf(m.journal, m.clk, faults.KindClientRestart,
			"email client pid %d killed and restarted", old.PID())
	}
	m.clk.Sleep(m.startupDelay)
	app, err := automation.LaunchEmailClient(m.machine, m.svc, m.address)
	if err != nil {
		return wrap("launch email client", err)
	}
	if m.onLaunch != nil {
		m.onLaunch(app)
	}
	m.mu.Lock()
	m.app = app
	m.mu.Unlock()
	if _, err := callTimeout(m.clk, m.callTimeout, errOnly(app.Connect)); err != nil {
		return wrap("connect after restart", err)
	}
	return nil
}

// Sanity implements the Sanity-Checking API for the email client:
// process liveness, pointer validity, connected state (reconnecting in
// place when possible), and a basic unread-count probe.
func (m *EmailManager) Sanity() error {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil || !app.Running() {
		return ErrClientDead
	}
	connected, err := callTimeout(m.clk, m.callTimeout, app.Connected)
	if err != nil {
		return wrap("sanity: connected check", err)
	}
	if !connected {
		if _, err := callTimeout(m.clk, m.callTimeout, errOnly(app.Connect)); err != nil {
			return wrap("sanity: reconnect", err)
		}
		journalRecordf(m.journal, m.clk, faults.KindRelogin,
			"email client for %s was disconnected; reconnect succeeded", m.address)
	}
	if _, err := callTimeout(m.clk, m.callTimeout, app.UnreadCount); err != nil {
		return wrap("sanity: unread probe", err)
	}
	return nil
}

// EnsureHealthy runs Sanity and restarts the client when the verdict
// is unfixable.
func (m *EmailManager) EnsureHealthy() error {
	err := m.Sanity()
	if err == nil {
		return nil
	}
	if !Unfixable(err) {
		return err
	}
	if rerr := m.Restart(); rerr != nil {
		return rerr
	}
	return nil
}

// Send submits a message through the client software.
func (m *EmailManager) Send(to, subject, body string) error {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return ErrClientDead
	}
	_, err := callTimeout(m.clk, m.callTimeout, errOnly(func() error {
		return app.SendMail(to, subject, body)
	}))
	return err
}

// FetchNew drains newly received emails.
func (m *EmailManager) FetchNew() ([]email.Message, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return nil, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, app.FetchNew)
}

// UnreadCount reports emails received but not fetched.
func (m *EmailManager) UnreadCount() (int, error) {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, app.UnreadCount)
}

// Events returns the current client instance's new-mail event channel.
func (m *EmailManager) Events() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.app == nil {
		return nil
	}
	return m.app.Events()
}

// MemoryMB reports the client process's working set.
func (m *EmailManager) MemoryMB() float64 {
	m.mu.Lock()
	app := m.app
	m.mu.Unlock()
	if app == nil {
		return 0
	}
	return app.MemoryMB()
}
