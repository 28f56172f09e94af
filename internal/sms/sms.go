// Package sms simulates a cellular Short Message Service carrier. The
// paper reports that SMS delivery through a large carrier shows "a
// similar range of unpredictability" to email, so the simulator shares
// email's heavy-tailed delay/loss contract, addressed through an
// email-style gateway address (<number>@sms.sim) as real carriers
// provided. Phones can also lose coverage ("the carrier does not cover
// the area of the user's location"), during which messages are dropped
// or delayed.
package sms

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/faults"
)

// Gateway errors.
var (
	// ErrUnknownNumber indicates no phone is provisioned for the number.
	ErrUnknownNumber = errors.New("sms: unknown number")
	// ErrGatewayDown indicates a carrier gateway outage.
	ErrGatewayDown = errors.New("sms: gateway unavailable")
)

// GatewayDomain is the email-style domain of the carrier gateway.
const GatewayDomain = "sms.sim"

// GatewayAddress returns the email-style gateway address for a phone
// number — the address users supply to alert services, and the reason
// the paper flags the privacy problem (the address reveals the number).
func GatewayAddress(number string) string { return number + "@" + GatewayDomain }

// Message is one delivered SMS.
type Message struct {
	From, ToNumber string
	Text           string
	SentAt         time.Time
	DeliveredAt    time.Time
}

// Config parameterizes a Carrier.
type Config struct {
	// Clock drives delivery latency; required.
	Clock clock.Clock
	// RNG seeds sampling; required.
	RNG *dist.RNG
	// Delay is the delivery latency distribution; defaults to a
	// heavy-tailed mixture (seconds, sometimes much longer).
	Delay dist.Dist
	// LossProbability is the chance a message is silently dropped.
	LossProbability float64
	// Outage, when active, fails Send calls. Optional.
	Outage *faults.Flag
}

// Carrier is the simulated SMS carrier.
type Carrier struct {
	clk    clock.Clock
	rng    *dist.RNG
	delay  dist.Dist
	lossP  float64
	outage *faults.Flag

	mu     sync.Mutex
	phones map[string]*Phone
	lost   int
}

// NewCarrier builds a carrier.
func NewCarrier(cfg Config) (*Carrier, error) {
	if cfg.Clock == nil {
		return nil, errors.New("sms: Config.Clock is required")
	}
	if cfg.RNG == nil {
		return nil, errors.New("sms: Config.RNG is required")
	}
	if cfg.Delay == nil {
		mix, err := dist.NewMixture(
			dist.Component{Weight: 0.85, Dist: dist.Normal{Mean: 8 * time.Second, Stddev: 4 * time.Second, Floor: time.Second}},
			dist.Component{Weight: 0.15, Dist: dist.LogNormal{Mu: 5.5, Sigma: 1.5}},
		)
		if err != nil {
			return nil, err
		}
		cfg.Delay = mix
	}
	if cfg.LossProbability < 0 || cfg.LossProbability >= 1 {
		return nil, fmt.Errorf("sms: loss probability %v outside [0, 1)", cfg.LossProbability)
	}
	if cfg.Outage == nil {
		cfg.Outage = faults.NewFlag("sms-gateway-outage")
	}
	return &Carrier{
		clk:    cfg.Clock,
		rng:    cfg.RNG,
		delay:  cfg.Delay,
		lossP:  cfg.LossProbability,
		outage: cfg.Outage,
		phones: make(map[string]*Phone),
	}, nil
}

// Outage returns the carrier's gateway outage flag.
func (c *Carrier) Outage() *faults.Flag { return c.outage }

// Provision creates a phone for number.
func (c *Carrier) Provision(number string) (*Phone, error) {
	if number == "" {
		return nil, errors.New("sms: empty number")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.phones[number]; ok {
		return nil, fmt.Errorf("sms: number %q already provisioned", number)
	}
	p := &Phone{number: number, covered: true, notify: make(chan struct{}, 1)}
	c.phones[number] = p
	return p, nil
}

// Phone returns the phone for number.
func (c *Carrier) Phone(number string) (*Phone, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.phones[number]
	return p, ok
}

// Send queues text for the numbered phone. Acceptance is synchronous;
// delivery happens after a sampled delay and is dropped if the message
// is lost in the network or the phone is out of coverage at delivery
// time.
func (c *Carrier) Send(from, toNumber, text string) error {
	if c.outage.Active() {
		return ErrGatewayDown
	}
	c.mu.Lock()
	p, ok := c.phones[toNumber]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("sms: send to %q: %w", toNumber, ErrUnknownNumber)
	}
	msg := Message{From: from, ToNumber: toNumber, Text: text, SentAt: c.clk.Now()}
	if c.rng.Bool(c.lossP) {
		c.noteLost()
		return nil
	}
	d := c.delay.Sample(c.rng)
	c.clk.AfterFunc(d, func() {
		if !p.Covered() {
			c.noteLost()
			return
		}
		msg.DeliveredAt = c.clk.Now()
		p.put(c.clk, msg)
	})
	return nil
}

// Lost returns how many messages were dropped in transit or to
// coverage gaps.
func (c *Carrier) Lost() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

func (c *Carrier) noteLost() {
	c.mu.Lock()
	c.lost++
	c.mu.Unlock()
}

// Phone is one subscriber handset.
type Phone struct {
	number string

	mu      sync.Mutex
	covered bool
	msgs    []Message
	notify  chan struct{}
}

// Number returns the phone's number.
func (p *Phone) Number() string { return p.number }

// Covered reports whether the phone currently has carrier coverage
// (and battery).
func (p *Phone) Covered() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.covered
}

// SetCovered flips coverage, modeling travel outside the carrier's
// area or a dead battery.
func (p *Phone) SetCovered(covered bool) {
	p.mu.Lock()
	p.covered = covered
	p.mu.Unlock()
}

func (p *Phone) put(clk clock.Clock, msg Message) {
	p.mu.Lock()
	p.msgs = append(p.msgs, msg)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
		clock.Notify(clk, p.notify)
	default:
	}
}

// Notify returns a coalescing new-message channel.
func (p *Phone) Notify() <-chan struct{} { return p.notify }

// Fetch removes and returns all delivered messages.
func (p *Phone) Fetch() []Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.msgs
	p.msgs = nil
	return out
}

// Len returns the number of unread messages.
func (p *Phone) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.msgs)
}
