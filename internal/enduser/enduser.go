// Package enduser simulates the human at the end of the SIMBA
// pipeline: an IM client that acknowledges alert IMs when the user is
// present, mailboxes the user checks periodically, and a phone whose
// SMS messages the user notices shortly after they arrive. The
// endpoint records a receipt for every alert it sees, measuring
// end-to-end latency from the alert's creation timestamp and
// discarding duplicates by timestamp, exactly as the paper prescribes
// for duplicate deliveries caused by MyAlertBuddy crash-replays.
package enduser

import (
	"errors"
	"sync"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/email"
	"simba/internal/im"
	"simba/internal/sms"
)

// Receipt is one alert observed by the user.
type Receipt struct {
	// Channel is how the alert reached the user.
	Channel addr.Type
	// At is when the user saw it.
	At time.Time
	// Latency is At minus the alert's creation time.
	Latency time.Duration
	// Alert is the received alert.
	Alert *alert.Alert
}

// Config parameterizes a User.
type Config struct {
	// Clock is required.
	Clock clock.Clock
	// Name labels the user.
	Name string
	// IMService + IMHandle give the user an IM presence. Optional.
	IMService *im.Service
	IMHandle  string
	// EmailService + EmailAddresses are the user's mailboxes (must
	// exist). Optional.
	EmailService   *email.Service
	EmailAddresses []string
	// Carrier + PhoneNumber give the user a phone (must be
	// provisioned). Optional.
	Carrier     *sms.Carrier
	PhoneNumber string
	// AckDelay is the think time before the user acknowledges an alert
	// IM when present.
	AckDelay time.Duration
	// EmailCheckPeriod is how often the user reads email (default 5m).
	EmailCheckPeriod time.Duration
	// SMSReadDelay is how long after arrival the user notices an SMS
	// (default 30s).
	SMSReadDelay time.Duration
}

// User is the simulated endpoint. Create with New, then Start.
type User struct {
	cfg   Config
	imEp  *core.DirectIM
	phone *sms.Phone

	present sync2Bool

	mu       sync.Mutex
	receipts []Receipt
	seen     map[string]bool
	dups     int
	stop     chan struct{}
}

// sync2Bool is an atomic bool with a true default.
type sync2Bool struct {
	mu  sync.Mutex
	off bool
}

func (b *sync2Bool) get() bool { b.mu.Lock(); defer b.mu.Unlock(); return !b.off }
func (b *sync2Bool) set(v bool) {
	b.mu.Lock()
	b.off = !v
	b.mu.Unlock()
}

// New builds the user endpoint.
func New(cfg Config) (*User, error) {
	if cfg.Clock == nil {
		return nil, errors.New("enduser: Config.Clock is required")
	}
	if cfg.EmailCheckPeriod <= 0 {
		cfg.EmailCheckPeriod = 5 * time.Minute
	}
	if cfg.SMSReadDelay <= 0 {
		cfg.SMSReadDelay = 30 * time.Second
	}
	u := &User{cfg: cfg, seen: make(map[string]bool)}
	if cfg.IMService != nil && cfg.IMHandle != "" {
		ep, err := core.NewDirectIM(cfg.Clock, cfg.IMService, cfg.IMHandle, u.onIM)
		if err != nil {
			return nil, err
		}
		u.imEp = ep
	}
	if cfg.Carrier != nil && cfg.PhoneNumber != "" {
		p, ok := cfg.Carrier.Phone(cfg.PhoneNumber)
		if !ok {
			return nil, errors.New("enduser: phone not provisioned")
		}
		u.phone = p
	}
	return u, nil
}

// Start brings the user online.
func (u *User) Start() error {
	u.mu.Lock()
	if u.stop != nil {
		u.mu.Unlock()
		return nil
	}
	stop := make(chan struct{})
	u.stop = stop
	u.mu.Unlock()
	if u.imEp != nil {
		if err := u.imEp.Start(); err != nil {
			return err
		}
	}
	if u.cfg.EmailService != nil && len(u.cfg.EmailAddresses) > 0 {
		u.cfg.Clock.Go(func() { u.emailLoop(stop) })
	}
	if u.phone != nil {
		u.cfg.Clock.Go(func() { u.smsLoop(stop) })
	}
	return nil
}

// Stop takes the user offline.
func (u *User) Stop() {
	u.mu.Lock()
	if u.stop != nil {
		close(u.stop)
		clock.Notify(u.cfg.Clock, u.stop)
		u.stop = nil
	}
	u.mu.Unlock()
	if u.imEp != nil {
		u.imEp.Stop()
	}
}

// SetPresent controls whether the user is at the computer. When away,
// alert IMs are not acknowledged (so IM blocks time out and delivery
// falls back), and no IM receipts are recorded.
func (u *User) SetPresent(present bool) { u.present.set(present) }

// Present reports the user's presence.
func (u *User) Present() bool { return u.present.get() }

// Receipts returns a copy of all recorded receipts.
func (u *User) Receipts() []Receipt {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]Receipt(nil), u.receipts...)
}

// ReceiptCount returns the number of distinct alerts received.
func (u *User) ReceiptCount() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.receipts)
}

// Duplicates returns how many duplicate deliveries the user discarded
// by timestamp.
func (u *User) Duplicates() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.dups
}

// onIM handles an inbound IM: acknowledge and record alert payloads
// when present.
func (u *User) onIM(msg im.Message) {
	if _, isAck := core.ParseAck(msg.Text); isAck {
		return
	}
	if !alert.IsWirePayload(msg.Text) {
		return
	}
	if !u.present.get() {
		return // nobody at the desk: no ack, no receipt
	}
	var a alert.Alert
	if err := a.UnmarshalText([]byte(msg.Text)); err != nil {
		return
	}
	ack := func() {
		_, _ = u.imEp.Send(msg.From, core.AckText(msg.Seq))
		u.record(addr.TypeIM, &a)
	}
	if u.cfg.AckDelay > 0 {
		u.cfg.Clock.AfterFunc(u.cfg.AckDelay, ack)
		return
	}
	ack()
}

// emailLoop models the user checking mail periodically.
func (u *User) emailLoop(stop chan struct{}) {
	ticker := u.cfg.Clock.NewTicker(u.cfg.EmailCheckPeriod)
	defer ticker.Stop()
	for {
		clock.Wait(u.cfg.Clock, stop, ticker.C())
		select {
		case <-stop:
			return
		case <-ticker.C():
			for _, address := range u.cfg.EmailAddresses {
				mb, ok := u.cfg.EmailService.Mailbox(address)
				if !ok {
					continue
				}
				for _, msg := range mb.Fetch() {
					if !alert.IsWirePayload(msg.Body) {
						continue
					}
					var a alert.Alert
					if err := a.UnmarshalText([]byte(msg.Body)); err != nil {
						continue
					}
					u.record(addr.TypeEmail, &a)
				}
			}
		}
	}
}

// smsLoop models the user noticing SMS messages on the phone.
func (u *User) smsLoop(stop chan struct{}) {
	for {
		clock.Wait(u.cfg.Clock, stop, u.phone.Notify())
		select {
		case <-stop:
			return
		case <-u.phone.Notify():
			msgs := u.phone.Fetch()
			u.cfg.Clock.AfterFunc(u.cfg.SMSReadDelay, func() {
				for _, msg := range msgs {
					if !alert.IsWirePayload(msg.Text) {
						continue
					}
					var a alert.Alert
					if err := a.UnmarshalText([]byte(msg.Text)); err != nil {
						continue
					}
					u.record(addr.TypeSMS, &a)
				}
			})
		}
	}
}

// record stores a receipt, discarding duplicates by dedup key (which
// embeds the creation timestamp, per the paper's duplicate-detection
// scheme).
func (u *User) record(channel addr.Type, a *alert.Alert) {
	now := u.cfg.Clock.Now()
	key := a.DedupKey()
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.seen[key] {
		u.dups++
		return
	}
	u.seen[key] = true
	u.receipts = append(u.receipts, Receipt{
		Channel: channel,
		At:      now,
		Latency: now.Sub(a.Created),
		Alert:   a,
	})
}
