// Package im simulates the Instant Messaging service SIMBA uses as its
// universal, time-critical alert channel. The simulator reproduces the
// properties the paper depends on:
//
//   - presence: a sender can query whether a buddy is online;
//   - fast, synchronous delivery: one-way latency is a few hundred
//     milliseconds (configurable distribution);
//   - per-session message sequence numbers, which the SIMBA library
//     tags acknowledgements with;
//   - realistic failure modes: whole-service outages (during which
//     logins and sends fail), forced logouts ("server recovery or
//     network disconnection"), and dropped messages for offline
//     recipients.
//
// Application-level acknowledgements are deliberately NOT implemented
// here: per the paper, SIMBA builds acks above the IM protocol, in the
// library layer.
package im

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/faults"
)

// Service errors.
var (
	// ErrServiceUnavailable indicates an IM service outage.
	ErrServiceUnavailable = errors.New("im: service unavailable")
	// ErrNotLoggedIn indicates the session has been logged out.
	ErrNotLoggedIn = errors.New("im: session not logged in")
	// ErrUnknownHandle indicates the handle is not registered.
	ErrUnknownHandle = errors.New("im: unknown handle")
	// ErrRecipientOffline indicates the recipient has no live session.
	ErrRecipientOffline = errors.New("im: recipient offline")
)

// Status is a buddy's presence state.
type Status int

// Presence states.
const (
	StatusOffline Status = iota + 1
	StatusOnline
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOffline:
		return "offline"
	case StatusOnline:
		return "online"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Message is one delivered instant message.
type Message struct {
	From, To string
	Text     string
	// Seq is the sender session's sequence number for this message.
	Seq uint64
	// SentAt and DeliveredAt are virtual timestamps.
	SentAt      time.Time
	DeliveredAt time.Time
}

// Config parameterizes a Service.
type Config struct {
	// Clock drives all latency; required.
	Clock clock.Clock
	// RNG seeds delivery latency sampling; required.
	RNG *dist.RNG
	// HopDelay is the one-way delivery latency distribution. The
	// default models the paper's sub-second IM delivery.
	HopDelay dist.Dist
	// Outage, when active, fails logins and sends. Optional.
	Outage *faults.Flag
	// InboxSize bounds each session's undelivered message buffer.
	InboxSize int
}

// Service is the simulated IM cloud.
type Service struct {
	clk      clock.Clock
	rng      *dist.RNG
	hopDelay dist.Dist
	outage   *faults.Flag
	inboxLen int

	mu       sync.Mutex
	accounts map[string]*account
	dropped  int // messages lost to offline recipients or full inboxes
}

type account struct {
	handle  string
	session *Session // nil when logged out
}

// NewService builds an IM service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Clock == nil {
		return nil, errors.New("im: Config.Clock is required")
	}
	if cfg.RNG == nil {
		return nil, errors.New("im: Config.RNG is required")
	}
	if cfg.HopDelay == nil {
		// Sub-second one-way delivery, per Section 5.
		cfg.HopDelay = dist.Normal{Mean: 300 * time.Millisecond, Stddev: 100 * time.Millisecond, Floor: 50 * time.Millisecond}
	}
	if cfg.Outage == nil {
		cfg.Outage = faults.NewFlag("im-service-outage")
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 256
	}
	return &Service{
		clk:      cfg.Clock,
		rng:      cfg.RNG,
		hopDelay: cfg.HopDelay,
		outage:   cfg.Outage,
		inboxLen: cfg.InboxSize,
		accounts: make(map[string]*account),
	}, nil
}

// Outage returns the service's outage flag so fault schedules can
// toggle it.
func (s *Service) Outage() *faults.Flag { return s.outage }

// Register creates an account for handle. Registering an existing
// handle is an error.
func (s *Service) Register(handle string) error {
	if handle == "" {
		return errors.New("im: empty handle")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.accounts[handle]; ok {
		return fmt.Errorf("im: handle %q already registered", handle)
	}
	s.accounts[handle] = &account{handle: handle}
	return nil
}

// Login opens a session for handle. A second login kicks the first
// session, as commercial IM services do. Login fails during an outage.
func (s *Service) Login(handle string) (*Session, error) {
	if s.outage.Active() {
		return nil, ErrServiceUnavailable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[handle]
	if !ok {
		return nil, fmt.Errorf("im: login %q: %w", handle, ErrUnknownHandle)
	}
	if acct.session != nil {
		acct.session.invalidate()
	}
	sess := &Session{
		svc:    s,
		handle: handle,
		inbox:  make(chan Message, s.inboxLen),
		alive:  true,
	}
	acct.session = sess
	return sess, nil
}

// ForceLogout terminates handle's live session, simulating server
// recovery or a network disconnection. It reports whether a session
// was terminated.
func (s *Service) ForceLogout(handle string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[handle]
	if !ok || acct.session == nil {
		return false
	}
	acct.session.invalidate()
	acct.session = nil
	return true
}

// ForceLogoutAll terminates every live session (e.g. at the start of a
// service outage) and returns how many were terminated.
func (s *Service) ForceLogoutAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, acct := range s.accounts {
		if acct.session != nil {
			acct.session.invalidate()
			acct.session = nil
			n++
		}
	}
	return n
}

// Status returns handle's presence.
func (s *Service) Status(handle string) (Status, error) {
	if s.outage.Active() {
		return 0, ErrServiceUnavailable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acct, ok := s.accounts[handle]
	if !ok {
		return 0, fmt.Errorf("im: status %q: %w", handle, ErrUnknownHandle)
	}
	if acct.session == nil {
		return StatusOffline, nil
	}
	return StatusOnline, nil
}

// Dropped returns how many messages were lost to offline recipients,
// kicked sessions, or full inboxes.
func (s *Service) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// deliver routes msg to the recipient's live session after the hop
// delay; the message is dropped if the recipient is gone by then.
func (s *Service) deliver(msg Message) {
	delay := s.hopDelay.Sample(s.rng)
	s.clk.AfterFunc(delay, func() {
		if s.outage.Active() {
			s.noteDrop()
			return
		}
		s.mu.Lock()
		acct, ok := s.accounts[msg.To]
		var sess *Session
		if ok {
			sess = acct.session
		}
		s.mu.Unlock()
		if sess == nil {
			s.noteDrop()
			return
		}
		msg.DeliveredAt = s.clk.Now()
		select {
		case sess.inbox <- msg:
			clock.Notify(s.clk, sess.inbox)
		default:
			s.noteDrop()
		}
	})
}

func (s *Service) noteDrop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

// Session is one logged-in IM connection.
type Session struct {
	svc    *Service
	handle string
	inbox  chan Message

	mu    sync.Mutex
	alive bool
	seq   uint64
}

// Handle returns the session's own handle.
func (se *Session) Handle() string { return se.handle }

// Inbox returns the channel on which delivered messages arrive. The
// channel is never closed; use LoggedIn to detect forced logout.
func (se *Session) Inbox() <-chan Message { return se.inbox }

// LoggedIn reports whether the session is still live.
func (se *Session) LoggedIn() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.alive
}

// Send transmits text to the named handle. It returns the message's
// session sequence number. Send fails during outages, after logout,
// and when the recipient is offline at send time (IM presence makes
// that visible to the sender, unlike email).
func (se *Session) Send(to, text string) (uint64, error) {
	if se.svc.outage.Active() {
		return 0, ErrServiceUnavailable
	}
	se.mu.Lock()
	if !se.alive {
		se.mu.Unlock()
		return 0, ErrNotLoggedIn
	}
	se.seq++
	seq := se.seq
	se.mu.Unlock()

	st, err := se.svc.Status(to)
	if err != nil {
		return 0, err
	}
	if st != StatusOnline {
		return 0, fmt.Errorf("im: send to %q: %w", to, ErrRecipientOffline)
	}
	msg := Message{
		From:   se.handle,
		To:     to,
		Text:   text,
		Seq:    seq,
		SentAt: se.svc.clk.Now(),
	}
	se.svc.deliver(msg)
	return seq, nil
}

// Status queries a buddy's presence through this session.
func (se *Session) Status(handle string) (Status, error) {
	se.mu.Lock()
	alive := se.alive
	se.mu.Unlock()
	if !alive {
		return 0, ErrNotLoggedIn
	}
	return se.svc.Status(handle)
}

// Logout voluntarily ends the session.
func (se *Session) Logout() {
	se.svc.mu.Lock()
	defer se.svc.mu.Unlock()
	acct, ok := se.svc.accounts[se.handle]
	if ok && acct.session == se {
		acct.session = nil
	}
	se.invalidate()
}

// invalidate marks the session dead. Callers hold svc.mu or are the
// service itself during login/kick.
func (se *Session) invalidate() {
	se.mu.Lock()
	se.alive = false
	se.mu.Unlock()
}
