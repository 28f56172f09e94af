package automation

import "simba/internal/email"

// EmailClientApp simulates a GUI email client (the Outlook of the
// paper) driven through an automation interface, with the same failure
// surface as IMClientApp: stale handles, hang-blocked calls, modal
// dialogs, and lost new-mail events.
type EmailClientApp struct {
	*window[email.Message]
	svc     *email.Service
	address string
	mailbox *email.Mailbox // under mu
}

// LaunchEmailClient starts a new instance of the email client software
// on the machine, bound to the given mailbox address. The mailbox must
// already exist.
func LaunchEmailClient(m *Machine, svc *email.Service, address string) (*EmailClientApp, error) {
	w, err := launch[email.Message](m, "emailclient")
	if err != nil {
		return nil, err
	}
	return &EmailClientApp{window: w, svc: svc, address: address}, nil
}

// Connect attaches the client to its mailbox and starts the new-mail
// pump — the email analogue of IM login.
func (a *EmailClientApp) Connect() error {
	if err := a.gate(); err != nil {
		return err
	}
	mb, ok := a.svc.Mailbox(a.address)
	if !ok {
		return email.ErrNoSuchMailbox
	}
	a.mu.Lock()
	a.mailbox = mb
	pumpLocked(a.window, mb.Notify(), func(p []email.Message, _ struct{}) []email.Message { return append(p, mb.Fetch()...) })
	a.mu.Unlock()
	return nil
}

// Connected reports whether the client is attached to its mailbox —
// the email sanity check.
func (a *EmailClientApp) Connected() (bool, error) {
	if err := a.gate(); err != nil {
		return false, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mailbox != nil, nil
}

// Disconnect detaches from the mailbox.
func (a *EmailClientApp) Disconnect() error {
	if err := a.gate(); err != nil {
		return err
	}
	a.mu.Lock()
	a.mailbox = nil
	a.stopPumpLocked()
	a.mu.Unlock()
	return nil
}

// SendMail submits a message through the email service.
func (a *EmailClientApp) SendMail(to, subject, body string) error {
	if err := a.gate(); err != nil {
		return err
	}
	return a.svc.Submit(a.address, to, subject, body)
}

// FetchNew drains the unread messages. It also sweeps the mailbox
// directly, so messages whose events were lost are still picked up —
// this is the polling path self-stabilization relies on.
func (a *EmailClientApp) FetchNew() ([]email.Message, error) {
	out, err := a.window.FetchNew()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	mb := a.mailbox
	a.mu.Unlock()
	if mb != nil {
		out = append(out, mb.Fetch()...)
	}
	return out, nil
}

// UnreadCount reports unread messages in window plus store.
func (a *EmailClientApp) UnreadCount() (int, error) {
	if err := a.gate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.pending)
	if a.mailbox != nil {
		n += a.mailbox.Len()
	}
	return n, nil
}
