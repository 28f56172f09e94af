package core

import (
	"strings"
	"sync"

	"simba/internal/addr"
	"simba/internal/alert"
)

// Send is one action-level delivery request handed to a Channel by the
// executor: the resolved target address plus the hosting context the
// shared delivery substrates need (which tenant, which shard).
type Send struct {
	// To is the address target: an IM handle, an email address, or an
	// SMS number/gateway address.
	To string
	// User is the subscribing user on hosted paths ("" on the personal
	// buddy path, where the registry itself belongs to one user).
	User string
	// Shard is the hosting shard on hosted paths (0 otherwise), so
	// sharded substrates can use per-shard forked RNGs.
	Shard int
	// Alert is the routed alert.
	Alert *alert.Alert
	// Payload is the alert's wire form.
	Payload []byte
}

// SendResult describes one channel send.
type SendResult struct {
	// Seq is the channel-assigned message sequence number, used to
	// match a later acknowledgement (ack-based channels only).
	Seq uint64
	// Confirmed reports that the send itself confirms delivery
	// (fire-and-forget channels: email, SMS, the hub's flat sink).
	// Unconfirmed sends succeed only when an acknowledgement for Seq
	// arrives within the block timeout.
	Confirmed bool
}

// Channel delivers one delivery-mode action over one communication
// type. Implementations must be safe for concurrent use: one channel
// instance serves every in-flight delivery of its registry.
type Channel interface {
	Send(req Send) (SendResult, error)
}

// ChannelFunc adapts a function to Channel.
type ChannelFunc func(req Send) (SendResult, error)

// Send implements Channel.
func (f ChannelFunc) Send(req Send) (SendResult, error) { return f(req) }

// Channels is the executor's channel registry, keyed by communication
// type: IM, email, SMS, and the hosting substrate all plug in
// uniformly. It is safe for concurrent use; registrations may be
// swapped at run time (a delivery in flight keeps the channel it
// looked up).
type Channels struct {
	mu     sync.RWMutex
	byType map[addr.Type]Channel
}

// NewChannels returns an empty registry.
func NewChannels() *Channels {
	return &Channels{byType: make(map[addr.Type]Channel)}
}

// Register installs (or replaces) the channel for a communication
// type. A nil channel removes the registration. Register returns the
// registry for chaining.
func (c *Channels) Register(t addr.Type, ch Channel) *Channels {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch == nil {
		delete(c.byType, t)
	} else {
		c.byType[t] = ch
	}
	return c
}

// Lookup returns the channel registered for a communication type.
func (c *Channels) Lookup(t addr.Type) (Channel, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ch, ok := c.byType[t]
	return ch, ok
}

// NewIMChannel adapts an IMSender (commgr.IMManager, DirectIM) to the
// Channel interface. IM is ack-based: the send returns the message
// sequence number and delivery is confirmed only by the receiver's
// application-level acknowledgement.
func NewIMChannel(s IMSender) Channel {
	return imChannel{s: s}
}

type imChannel struct{ s IMSender }

func (c imChannel) Send(req Send) (SendResult, error) {
	seq, err := c.s.Send(req.To, string(req.Payload))
	if err != nil {
		return SendResult{}, err
	}
	return SendResult{Seq: seq}, nil
}

// NewEmailChannel adapts an EmailSender (commgr.EmailManager,
// DirectEmail) to the Channel interface. Email is fire-and-forget:
// accept == confirmed.
func NewEmailChannel(s EmailSender) Channel {
	return emailChannel{s: s}
}

type emailChannel struct{ s EmailSender }

func (c emailChannel) Send(req Send) (SendResult, error) {
	if err := c.s.Send(req.To, req.Alert.Subject, string(req.Payload)); err != nil {
		return SendResult{}, err
	}
	return SendResult{Confirmed: true}, nil
}

// SMSSender submits a text message to a phone number. sms.Carrier
// satisfies it.
type SMSSender interface {
	Send(from, toNumber, text string) error
}

// NewSMSChannel adapts a direct carrier submission to the Channel
// interface, making SMS a first-class delivery-mode action instead of
// a ride on the email gateway. The address target may be a bare number
// or the email-style gateway form (number@domain); the gateway domain
// is stripped. SMS is fire-and-forget: carrier accept == confirmed.
func NewSMSChannel(s SMSSender, from string) Channel {
	return smsChannel{s: s, from: from}
}

type smsChannel struct {
	s    SMSSender
	from string
}

func (c smsChannel) Send(req Send) (SendResult, error) {
	number, _, _ := strings.Cut(req.To, "@")
	if err := c.s.Send(c.from, number, string(req.Payload)); err != nil {
		return SendResult{}, err
	}
	return SendResult{Confirmed: true}, nil
}
