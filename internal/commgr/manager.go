package commgr

import (
	"errors"
	"sync"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/faults"
)

// app is what a manager asks of every client instance: its process and
// its message window, with messages of type M.
type app[M any] interface {
	comparable
	PID() int64
	Running() bool
	Kill()
	MemoryMB() float64
	Events() <-chan struct{}
	FetchNew() ([]M, error)
	UnreadCount() (int, error)
}

// client is what differs between the client software two managers
// drive: how to launch an instance, connect it (IM login, email
// connect), check the connection, and probe a basic operation, and the
// words its errors and journal lines use.
type client[A any] struct {
	name      string // "im", "email"
	owner     string // the handle or address the client works for
	pairs     []CaptionButton
	launch    func() (A, error)
	onLaunch  func(A)
	connect   func(A) error
	connected func(A) (bool, error)
	probe     func(A) error
	// transient is the connect error a restart rides out, leaving the
	// next sanity check to connect once the service returns; nil
	// tolerates none.
	transient error
	// connectOp names the connect call in errors; a connection healed
	// in place is journaled as "was <lost>; <reconnectOp> succeeded".
	connectOp, reconnectOp, lost string
}

// manager is the Communication Manager both IMManager and EmailManager
// are: it drives one client software through automation and adds the
// paper's three exception-handling APIs — sanity checking,
// shutdown/restart, and the monkey thread.
type manager[A app[M], M any] struct {
	client[A]
	clk          clock.Clock
	callTimeout  time.Duration
	startupDelay time.Duration
	journal      *faults.Journal
	monkey       *Monkey

	mu  sync.Mutex
	app A // zero before Start and after Stop
}

func newManager[A app[M], M any](c client[A], clk clock.Clock, machine *automation.Machine, callTimeout, startupDelay time.Duration, journal *faults.Journal, extra []CaptionButton, period time.Duration) *manager[A, M] {
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	switch {
	case startupDelay == 0:
		startupDelay = DefaultStartupDelay
	case startupDelay < 0: // explicit "no delay"
		startupDelay = 0
	}
	pairs := append(append(SystemPairs(), c.pairs...), extra...)
	return &manager[A, M]{
		client:       c,
		clk:          clk,
		callTimeout:  callTimeout,
		startupDelay: startupDelay,
		journal:      journal,
		monkey:       NewMonkey(clk, machine.Desktop(), period, journal, pairs...),
	}
}

// Monkey returns the manager's dialog-handling thread, so callers can
// register environment-specific caption-button pairs.
func (m *manager[A, M]) Monkey() *Monkey { return m.monkey }

// App returns the current client instance (nil before Start). Tests
// and fault injectors use it.
func (m *manager[A, M]) App() A {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app
}

// Start launches the client software, connects it, and starts the
// monkey thread.
func (m *manager[A, M]) Start() error {
	m.monkey.Start()
	return m.Restart()
}

// Stop shuts down the client software and the monkey thread.
func (m *manager[A, M]) Stop() {
	m.monkey.Stop()
	m.mu.Lock()
	app, live := m.app, m.app != *new(A)
	m.app = *new(A)
	m.mu.Unlock()
	if live {
		app.Kill()
	}
}

// Restart implements the Shutdown/Restart API: terminate the current
// client instance, launch a fresh one (which takes StartupDelay of
// virtual time), connect it, and refresh all pointers.
func (m *manager[A, M]) Restart() error {
	if old, ok := m.current(); ok {
		old.Kill()
		m.record(faults.KindClientRestart, "%s client pid %d killed and restarted", m.name, old.PID())
	}
	m.clk.Sleep(m.startupDelay)
	app, err := m.launch()
	if err != nil {
		return wrap("launch "+m.name+" client", err)
	}
	if m.onLaunch != nil {
		m.onLaunch(app)
	}
	m.mu.Lock()
	m.app = app
	m.mu.Unlock()
	if err := m.connectTimed(app); err != nil && !errors.Is(err, m.transient) {
		return wrap(m.connectOp+" after restart", err)
	}
	return nil
}

func (m *manager[A, M]) connectTimed(app A) error {
	_, err := callTimeout(m.clk, m.callTimeout, errOnly(func() error { return m.connect(app) }))
	return err
}

// Sanity implements the Sanity-Checking API. It verifies, in order:
// process liveness and pointer validity; the connection, reconnecting
// in place when it was lost (journaled as a re-login); and the ability
// to perform a basic operation. A nil return means healthy or healed
// in place; use Unfixable on the returned error to decide whether
// Restart is needed.
func (m *manager[A, M]) Sanity() error {
	app, ok := m.current()
	if !ok || !app.Running() {
		return ErrClientDead
	}
	connected, err := callTimeout(m.clk, m.callTimeout, func() (bool, error) { return m.connected(app) })
	if err != nil {
		return wrap("sanity: connected check", err)
	}
	if !connected {
		if err := m.connectTimed(app); err != nil {
			return wrap("sanity: "+m.reconnectOp, err)
		}
		m.record(faults.KindRelogin, "%s client for %s was %s; %s succeeded", m.name, m.owner, m.lost, m.reconnectOp)
	}
	if _, err := callTimeout(m.clk, m.callTimeout, errOnly(func() error { return m.probe(app) })); err != nil {
		return wrap("sanity: probe", err)
	}
	return nil
}

// EnsureHealthy runs Sanity and applies the restart API when the
// verdict is unfixable. It reports the terminal error, if any: a
// transient one (a service outage) is left for a later retry.
func (m *manager[A, M]) EnsureHealthy() error {
	if err := m.Sanity(); !Unfixable(err) {
		return err
	}
	return m.Restart()
}

// FetchNew drains the messages the client has received.
func (m *manager[A, M]) FetchNew() ([]M, error) {
	return call(m, A.FetchNew)
}

// UnreadCount reports messages received but not yet fetched — the
// self-stabilization "unprocessed messages" invariant input.
func (m *manager[A, M]) UnreadCount() (int, error) {
	return call(m, A.UnreadCount)
}

// Events returns the current client instance's new-message event
// channel. After a Restart the channel changes; long-lived consumers
// should re-fetch it, or rely on polling via FetchNew.
func (m *manager[A, M]) Events() <-chan struct{} {
	if app, ok := m.current(); ok {
		return app.Events()
	}
	return nil
}

// MemoryMB reports the client process's working set, for resource-
// consumption invariants.
func (m *manager[A, M]) MemoryMB() float64 {
	if app, ok := m.current(); ok {
		return app.MemoryMB()
	}
	return 0
}

// current returns the client instance, if there is one.
func (m *manager[A, M]) current() (A, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.app, m.app != *new(A)
}

func (m *manager[A, M]) record(kind faults.Kind, format string, args ...any) {
	if m.journal != nil {
		m.journal.Recordf(m.clk.Now(), kind, format, args...)
	}
}

// call runs op against the current client instance under the call
// timeout, or fails with ErrClientDead when there is none.
func call[A app[M], M, T any](m *manager[A, M], op func(A) (T, error)) (T, error) {
	app, ok := m.current()
	if !ok {
		var zero T
		return zero, ErrClientDead
	}
	return callTimeout(m.clk, m.callTimeout, func() (T, error) { return op(app) })
}
