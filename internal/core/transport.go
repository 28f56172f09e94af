package core

import (
	"errors"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/email"
	"simba/internal/im"
)

// DefaultRetryPeriod is how often DirectIM verifies its login.
const DefaultRetryPeriod = 5 * time.Second

// DirectIM is a lightweight IM endpoint for alert sources that do not
// drive GUI client software: it logs in, keeps itself logged in, pumps
// received messages to a handler, and satisfies IMSender. MyAlertBuddy
// does NOT use this — it drives real client software through
// commgr.IMManager; DirectIM models the server-side daemons (alert
// proxy, Aladdin gateway, WISH server) that link the SIMBA library
// directly.
type DirectIM struct {
	clk       clock.Clock
	svc       *im.Service
	handle    string
	retry     time.Duration
	onMessage func(im.Message)

	mu   sync.Mutex
	sess *im.Session
	stop chan struct{}
}

var _ IMSender = (*DirectIM)(nil)

// NewDirectIM builds an endpoint for handle (which must be registered
// with the service). onMessage receives every inbound IM; it may be
// nil for send-only endpoints, but then acknowledgements cannot be
// received — wire onMessage to Engine.HandleIncoming.
func NewDirectIM(clk clock.Clock, svc *im.Service, handle string, onMessage func(im.Message)) (*DirectIM, error) {
	if clk == nil || svc == nil {
		return nil, errors.New("core: DirectIM requires clock and service")
	}
	if handle == "" {
		return nil, errors.New("core: DirectIM requires handle")
	}
	return &DirectIM{
		clk:       clk,
		svc:       svc,
		handle:    handle,
		retry:     DefaultRetryPeriod,
		onMessage: onMessage,
	}, nil
}

// SetOnMessage replaces the inbound-message handler — used when the
// handler needs to reference an Engine built after the endpoint (e.g.
// wiring acknowledgements via Engine.HandleIncoming). Call it before
// Start.
func (d *DirectIM) SetOnMessage(fn func(im.Message)) {
	d.mu.Lock()
	d.onMessage = fn
	d.mu.Unlock()
}

// Start logs in (tolerating an initial outage) and starts the pump and
// keep-alive loop.
func (d *DirectIM) Start() error {
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return nil
	}
	stop := make(chan struct{})
	d.stop = stop
	d.mu.Unlock()
	d.relogin() // best effort; keep-alive retries on failure
	d.clk.Go(func() { d.run(stop) })
	return nil
}

// Stop ends the pump and logs out.
func (d *DirectIM) Stop() {
	d.mu.Lock()
	if d.stop != nil {
		close(d.stop)
		clock.Notify(d.clk, d.stop)
		d.stop = nil
	}
	sess := d.sess
	d.sess = nil
	d.mu.Unlock()
	if sess != nil {
		sess.Logout()
	}
}

// LoggedIn reports whether the endpoint currently holds a live session.
func (d *DirectIM) LoggedIn() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sess != nil && d.sess.LoggedIn()
}

// Send implements IMSender.
func (d *DirectIM) Send(to, text string) (uint64, error) {
	d.mu.Lock()
	sess := d.sess
	d.mu.Unlock()
	if sess == nil || !sess.LoggedIn() {
		return 0, im.ErrNotLoggedIn
	}
	return sess.Send(to, text)
}

// relogin attempts a login and swaps the session, reporting success.
func (d *DirectIM) relogin() bool {
	sess, err := d.svc.Login(d.handle)
	if err != nil {
		return false
	}
	d.mu.Lock()
	d.sess = sess
	d.mu.Unlock()
	return true
}

// run pumps inbound messages and re-logs-in whenever the session dies.
func (d *DirectIM) run(stop chan struct{}) {
	ticker := d.clk.NewTicker(d.retry)
	defer ticker.Stop()
	for {
		d.mu.Lock()
		sess := d.sess
		d.mu.Unlock()
		var inbox <-chan im.Message
		if sess != nil {
			inbox = sess.Inbox()
		}
		clock.Wait(d.clk, stop, inbox, ticker.C())
		select {
		case <-stop:
			return
		case msg := <-inbox:
			d.mu.Lock()
			handler := d.onMessage
			d.mu.Unlock()
			if handler != nil {
				handler(msg)
			}
		case <-ticker.C():
			if sess == nil || !sess.LoggedIn() {
				d.relogin()
			}
		}
	}
}

// DirectEmail satisfies EmailSender by submitting straight to the
// email service with a fixed From address.
type DirectEmail struct {
	svc  *email.Service
	from string
}

var _ EmailSender = (*DirectEmail)(nil)

// NewDirectEmail builds a sender submitting as from.
func NewDirectEmail(svc *email.Service, from string) (*DirectEmail, error) {
	if svc == nil {
		return nil, errors.New("core: DirectEmail requires service")
	}
	if from == "" {
		return nil, errors.New("core: DirectEmail requires from address")
	}
	return &DirectEmail{svc: svc, from: from}, nil
}

// Send implements EmailSender.
func (d *DirectEmail) Send(to, subject, body string) error {
	return d.svc.Submit(d.from, to, subject, body)
}
