package automation

import (
	"sync"

	"simba/internal/dist"
	"simba/internal/email"
)

// EmailClientApp simulates a GUI email client (the Outlook of the
// paper) driven through an automation interface, with the same failure
// surface as IMClientApp: stale handles, hang-blocked calls, modal
// dialogs, and lost new-mail events.
type EmailClientApp struct {
	*Proc
	svc     *email.Service
	address string
	rng     *dist.RNG

	mu         sync.Mutex
	mailbox    *email.Mailbox
	pending    []email.Message
	events     chan struct{}
	pumpStop   chan struct{}
	eventLossP float64
}

// LaunchEmailClient starts a new instance of the email client software
// on the machine, bound to the given mailbox address. The mailbox must
// already exist.
func LaunchEmailClient(m *Machine, svc *email.Service, address string) (*EmailClientApp, error) {
	proc, err := m.StartProc("emailclient")
	if err != nil {
		return nil, err
	}
	app := &EmailClientApp{
		Proc:    proc,
		svc:     svc,
		address: address,
		rng:     dist.NewRNG(proc.PID()),
		events:  make(chan struct{}, 1),
	}
	return app, nil
}

// SetEventLossProbability makes the client drop that fraction of
// new-mail events, leaving messages unread in the store.
func (a *EmailClientApp) SetEventLossProbability(p float64) {
	a.mu.Lock()
	a.eventLossP = p
	a.mu.Unlock()
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
	if a.pumpStop != nil {
		close(a.pumpStop)
	}
	a.mailbox = mb
	stop := make(chan struct{})
	a.pumpStop = stop
	a.mu.Unlock()
	go a.pump(mb, stop)
	return nil
}

func (a *EmailClientApp) pump(mb *email.Mailbox, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-a.dead:
			return
		case <-mb.Notify():
			if err := a.gate(); err != nil {
				return
			}
			a.mu.Lock()
			a.pending = append(a.pending, mb.Fetch()...)
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
	if a.pumpStop != nil {
		close(a.pumpStop)
		a.pumpStop = nil
	}
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

// Events returns the coalescing new-mail event channel.
func (a *EmailClientApp) Events() <-chan struct{} { return a.events }

// FetchNew drains the unread messages. It also sweeps the mailbox
// directly, so messages whose events were lost are still picked up —
// this is the polling path self-stabilization relies on.
func (a *EmailClientApp) FetchNew() ([]email.Message, error) {
	if err := a.gate(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	mb := a.mailbox
	out := a.pending
	a.pending = nil
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
