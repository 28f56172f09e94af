package automation

import (
	"sync"

	"simba/internal/dist"
	"simba/internal/im"
)

// IMClientApp simulates a GUI instant-messaging client (the MSN
// Messenger of the paper) driven through an automation interface. The
// SIMBA Communication Managers never touch the IM service directly;
// they call these methods, which exhibit all the pathologies of real
// automation: stale handles after a crash, blocked calls while hung or
// while a modal dialog is open, spontaneous logouts, and lost
// new-message events.
type IMClientApp struct {
	*Proc
	svc    *im.Service
	handle string
	rng    *dist.RNG

	mu         sync.Mutex
	sess       *im.Session
	pending    []im.Message
	events     chan struct{}
	pumpStop   chan struct{}
	eventLossP float64
}

// LaunchIMClient starts a new instance of the IM client software on
// the machine, associated with the given IM handle. The app is not
// logged in until Login is called.
func LaunchIMClient(m *Machine, svc *im.Service, handle string) (*IMClientApp, error) {
	proc, err := m.StartProc("imclient")
	if err != nil {
		return nil, err
	}
	return &IMClientApp{
		Proc:   proc,
		svc:    svc,
		handle: handle,
		rng:    dist.NewRNG(proc.PID()), // per-instance stream, deterministic by PID
		events: make(chan struct{}, 1),
	}, nil
}

// SetEventLossProbability makes the client silently drop that fraction
// of new-IM events, leaving messages unread in the window — the
// condition the paper's self-stabilization "unprocessed IMs" check
// repairs.
func (a *IMClientApp) SetEventLossProbability(p float64) {
	a.mu.Lock()
	a.eventLossP = p
	a.mu.Unlock()
}

// Login logs the client on to the IM service and starts the receive
// pump. A prior session, if any, is abandoned.
func (a *IMClientApp) Login() error {
	if err := a.gate(); err != nil {
		return err
	}
	sess, err := a.svc.Login(a.handle)
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.pumpStop != nil {
		close(a.pumpStop)
	}
	a.sess = sess
	stop := make(chan struct{})
	a.pumpStop = stop
	a.mu.Unlock()
	go a.pump(sess, stop)
	return nil
}

// pump moves delivered IMs from the session inbox into the client's
// message window and raises (possibly lost) new-IM events.
func (a *IMClientApp) pump(sess *im.Session, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-a.dead:
			return
		case msg := <-sess.Inbox():
			// A hung client's window thread is stuck too: gate here so
			// messages pile up in the service while the app is hung.
			if err := a.gate(); err != nil {
				return
			}
			a.mu.Lock()
			a.pending = append(a.pending, msg)
			lost := a.eventLossP > 0 && a.rng.Bool(a.eventLossP)
			a.mu.Unlock()
			if !lost {
				select {
				case a.events <- struct{}{}:
				default:
				}
			}
		}
	}
}

// Logout logs off the IM service.
func (a *IMClientApp) Logout() error {
	if err := a.gate(); err != nil {
		return err
	}
	a.mu.Lock()
	sess := a.sess
	a.sess = nil
	if a.pumpStop != nil {
		close(a.pumpStop)
		a.pumpStop = nil
	}
	a.mu.Unlock()
	if sess != nil {
		sess.Logout()
	}
	return nil
}

// LoggedIn reports whether the client currently holds a live session.
// This is the application-specific check of the sanity-checking API:
// after a server recovery or network disconnection it reports false.
func (a *IMClientApp) LoggedIn() (bool, error) {
	if err := a.gate(); err != nil {
		return false, err
	}
	a.mu.Lock()
	sess := a.sess
	a.mu.Unlock()
	return sess != nil && sess.LoggedIn(), nil
}

// SendMessage sends text to an IM handle, returning the session
// sequence number.
func (a *IMClientApp) SendMessage(to, text string) (uint64, error) {
	if err := a.gate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	sess := a.sess
	a.mu.Unlock()
	if sess == nil || !sess.LoggedIn() {
		return 0, im.ErrNotLoggedIn
	}
	return sess.Send(to, text)
}

// BuddyStatus queries a buddy's presence.
func (a *IMClientApp) BuddyStatus(handle string) (im.Status, error) {
	if err := a.gate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	sess := a.sess
	a.mu.Unlock()
	if sess == nil || !sess.LoggedIn() {
		return 0, im.ErrNotLoggedIn
	}
	return sess.Status(handle)
}

// Events returns the coalescing new-IM event channel. Events may be
// lost (see SetEventLossProbability); consumers must also poll
// FetchNew periodically, which is exactly what the paper's
// self-stabilization checks do.
func (a *IMClientApp) Events() <-chan struct{} { return a.events }

// FetchNew drains the unread messages from the client window.
func (a *IMClientApp) FetchNew() ([]im.Message, error) {
	if err := a.gate(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	out := a.pending
	a.pending = nil
	a.mu.Unlock()
	return out, nil
}

// UnreadCount reports how many messages sit unread in the window.
func (a *IMClientApp) UnreadCount() (int, error) {
	if err := a.gate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending), nil
}
