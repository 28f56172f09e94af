// Package email simulates the store-and-forward email substrate SIMBA
// uses as its fallback alert channel. The paper's premise is that
// "email delivery is not guaranteed to be reliable, and the
// unpredictable delivery time can range from seconds to days"; the
// simulator reproduces exactly that contract with a configurable
// heavy-tailed delay distribution and a silent-loss probability.
package email

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
	// ErrServiceUnavailable indicates the submission server is down.
	ErrServiceUnavailable = errors.New("email: service unavailable")
	// ErrNoSuchMailbox indicates the recipient does not exist.
	ErrNoSuchMailbox = errors.New("email: no such mailbox")
)

// Message is one email.
type Message struct {
	From, To string
	Subject  string
	Body     string
	// SubmittedAt and DeliveredAt are virtual timestamps; DeliveredAt
	// is zero until the message lands in the recipient's mailbox.
	SubmittedAt time.Time
	DeliveredAt time.Time
}

// Config parameterizes a Service.
type Config struct {
	// Clock drives delivery latency; required.
	Clock clock.Clock
	// RNG seeds the delay and loss sampling; required.
	RNG *dist.RNG
	// Delay is the end-to-end delivery latency distribution. The
	// default is heavy-tailed: usually tens of seconds, occasionally
	// hours.
	Delay dist.Dist
	// LossProbability is the chance a submitted message is silently
	// lost in transit.
	LossProbability float64
	// Outage, when active, fails Submit calls. Optional.
	Outage *faults.Flag
}

// Service is the simulated email infrastructure.
type Service struct {
	clk    clock.Clock
	rng    *dist.RNG
	delay  dist.Dist
	lossP  float64
	outage *faults.Flag

	mu        sync.Mutex
	mailboxes map[string]*Mailbox
	lost      int
}

// NewService builds an email service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Clock == nil {
		return nil, errors.New("email: Config.Clock is required")
	}
	if cfg.RNG == nil {
		return nil, errors.New("email: Config.RNG is required")
	}
	if cfg.Delay == nil {
		// Median ~20s, 90th percentile minutes, tail into hours: the
		// "seconds to days" unpredictability from Section 3.1.
		cfg.Delay = dist.LogNormal{Mu: 3.0, Sigma: 1.6}
	}
	if cfg.LossProbability < 0 || cfg.LossProbability >= 1 {
		return nil, fmt.Errorf("email: loss probability %v outside [0, 1)", cfg.LossProbability)
	}
	if cfg.Outage == nil {
		cfg.Outage = faults.NewFlag("email-service-outage")
	}
	return &Service{
		clk:       cfg.Clock,
		rng:       cfg.RNG,
		delay:     cfg.Delay,
		lossP:     cfg.LossProbability,
		outage:    cfg.Outage,
		mailboxes: make(map[string]*Mailbox),
	}, nil
}

// Outage returns the service's outage flag.
func (s *Service) Outage() *faults.Flag { return s.outage }

// CreateMailbox provisions a mailbox for address.
func (s *Service) CreateMailbox(address string) (*Mailbox, error) {
	if address == "" {
		return nil, errors.New("email: empty address")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mailboxes[address]; ok {
		return nil, fmt.Errorf("email: mailbox %q already exists", address)
	}
	mb := &Mailbox{address: address, notify: make(chan struct{}, 1)}
	s.mailboxes[address] = mb
	return mb, nil
}

// Mailbox returns the mailbox for address.
func (s *Service) Mailbox(address string) (*Mailbox, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb, ok := s.mailboxes[address]
	return mb, ok
}

// Submit accepts a message for delivery. Acceptance is synchronous
// (like an SMTP 250); actual delivery happens after a sampled delay
// and may silently fail. Submitting to an unknown recipient is an
// error (a synchronous bounce).
func (s *Service) Submit(from, to, subject, body string) error {
	if s.outage.Active() {
		return ErrServiceUnavailable
	}
	s.mu.Lock()
	mb, ok := s.mailboxes[to]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("email: submit to %q: %w", to, ErrNoSuchMailbox)
	}
	msg := Message{
		From:        from,
		To:          to,
		Subject:     subject,
		Body:        body,
		SubmittedAt: s.clk.Now(),
	}
	if s.rng.Bool(s.lossP) {
		s.mu.Lock()
		s.lost++
		s.mu.Unlock()
		return nil // silent in-transit loss: sender saw a successful submit
	}
	d := s.delay.Sample(s.rng)
	s.clk.AfterFunc(d, func() {
		msg.DeliveredAt = s.clk.Now()
		mb.put(s.clk, msg)
	})
	return nil
}

// Lost returns how many messages were silently lost in transit.
func (s *Service) Lost() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lost
}

// Mailbox holds delivered messages for one address.
type Mailbox struct {
	address string

	mu     sync.Mutex
	msgs   []Message
	notify chan struct{}
}

// Address returns the mailbox's address.
func (m *Mailbox) Address() string { return m.address }

// put appends a delivered message and signals the new-mail event.
func (m *Mailbox) put(clk clock.Clock, msg Message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
		clock.Notify(clk, m.notify)
	default:
	}
}

// Notify returns a channel that receives a token when new mail
// arrives. Tokens coalesce: one token may cover several messages, so
// consumers should drain with Fetch. (The paper's self-stabilization
// checks exist precisely because client software can lose new-email
// events; the coalescing channel models the eventing interface.)
func (m *Mailbox) Notify() <-chan struct{} { return m.notify }

// Fetch removes and returns all delivered messages.
func (m *Mailbox) Fetch() []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.msgs
	m.msgs = nil
	return out
}

// Peek returns the delivered messages without removing them.
func (m *Mailbox) Peek() []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Message(nil), m.msgs...)
}

// Len returns the number of unfetched messages.
func (m *Mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.msgs)
}
