package automation

import "simba/internal/im"

// IMClientApp simulates a GUI instant-messaging client (the MSN
// Messenger of the paper) driven through an automation interface. The
// SIMBA Communication Managers never touch the IM service directly;
// they call these methods, which exhibit all the pathologies of real
// automation: stale handles after a crash, blocked calls while hung or
// while a modal dialog is open, spontaneous logouts, and lost
// new-message events.
type IMClientApp struct {
	*window[im.Message]
	svc    *im.Service
	handle string
	sess   *im.Session // under mu
}

// LaunchIMClient starts a new instance of the IM client software on
// the machine, associated with the given IM handle. The app is not
// logged in until Login is called.
func LaunchIMClient(m *Machine, svc *im.Service, handle string) (*IMClientApp, error) {
	w, err := launch[im.Message](m, "imclient")
	if err != nil {
		return nil, err
	}
	return &IMClientApp{window: w, svc: svc, handle: handle}, nil
}

// Login logs the client on to the IM service and starts the receive
// pump, which moves delivered IMs from the session inbox into the
// window. A prior session, if any, is abandoned.
func (a *IMClientApp) Login() error {
	if err := a.gate(); err != nil {
		return err
	}
	sess, err := a.svc.Login(a.handle)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.sess = sess
	pumpLocked(a.window, sess.Inbox(), func(p []im.Message, m im.Message) []im.Message { return append(p, m) })
	a.mu.Unlock()
	return nil
}

// Logout logs off the IM service.
func (a *IMClientApp) Logout() error {
	if err := a.gate(); err != nil {
		return err
	}
	a.mu.Lock()
	sess := a.sess
	a.sess = nil
	a.stopPumpLocked()
	a.mu.Unlock()
	if sess != nil {
		sess.Logout()
	}
	return nil
}

// session returns the live session once the call has passed the
// process's gate, or im.ErrNotLoggedIn.
func (a *IMClientApp) session() (*im.Session, error) {
	if err := a.gate(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	sess := a.sess
	a.mu.Unlock()
	if sess == nil || !sess.LoggedIn() {
		return nil, im.ErrNotLoggedIn
	}
	return sess, nil
}

// LoggedIn reports whether the client currently holds a live session.
// This is the application-specific check of the sanity-checking API:
// after a server recovery or network disconnection it reports false.
func (a *IMClientApp) LoggedIn() (bool, error) {
	_, err := a.session()
	if err == im.ErrNotLoggedIn {
		return false, nil
	}
	return err == nil, err
}

// SendMessage sends text to an IM handle, returning the session
// sequence number.
func (a *IMClientApp) SendMessage(to, text string) (uint64, error) {
	sess, err := a.session()
	if err != nil {
		return 0, err
	}
	return sess.Send(to, text)
}

// BuddyStatus queries a buddy's presence.
func (a *IMClientApp) BuddyStatus(handle string) (im.Status, error) {
	sess, err := a.session()
	if err != nil {
		return 0, err
	}
	return sess.Status(handle)
}
