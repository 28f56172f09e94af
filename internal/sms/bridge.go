package sms

import (
	"errors"
	"time"

	"simba/internal/clock"
	"simba/internal/email"
)

// Bridge connects the carrier's email gateway to SMS delivery: email
// submitted to GatewayAddress(number) is forwarded to the phone as an
// SMS. This is how the paper's sources sent SMS — "to receive alerts
// as SMS messages on a cell phone, the user needs to supply the SMS
// email address" — and why SIMBA needs only IM and email senders.
type Bridge struct {
	clk     clock.Clock
	carrier *Carrier
	number  string
	mb      *email.Mailbox
	stop    chan struct{}
	exited  chan struct{} // closed when run returns
}

// AttachGateway provisions (or reuses) the gateway mailbox for number
// and starts forwarding. The phone must already be provisioned.
func AttachGateway(clk clock.Clock, emailSvc *email.Service, carrier *Carrier, number string) (*Bridge, error) {
	if clk == nil || emailSvc == nil || carrier == nil {
		return nil, errors.New("sms: AttachGateway requires clock, email service, and carrier")
	}
	if _, ok := carrier.Phone(number); !ok {
		return nil, ErrUnknownNumber
	}
	address := GatewayAddress(number)
	mb, ok := emailSvc.Mailbox(address)
	if !ok {
		var err error
		mb, err = emailSvc.CreateMailbox(address)
		if err != nil {
			return nil, err
		}
	}
	b := &Bridge{
		clk:     clk,
		carrier: carrier,
		number:  number,
		mb:      mb,
		stop:    make(chan struct{}),
		exited:  make(chan struct{}),
	}
	clk.Go(b.run)
	return b, nil
}

// Address returns the gateway's email address.
func (b *Bridge) Address() string { return GatewayAddress(b.number) }

// Stop ends forwarding and returns once the forwarding goroutine has
// exited. Stopping twice is harmless.
func (b *Bridge) Stop() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
		clock.Notify(b.clk, b.stop)
	}
	<-b.exited
}

func (b *Bridge) run() {
	defer close(b.exited)
	// Poll as a fallback so coalesced notifications never strand mail.
	ticker := b.clk.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		clock.Wait(b.clk, b.stop, b.mb.Notify(), ticker.C())
		select {
		case <-b.stop:
			return
		case <-b.mb.Notify():
		case <-ticker.C():
		}
		// A notify/tick can win the select race against a just-closed
		// stop channel; re-check before forwarding.
		select {
		case <-b.stop:
			return
		default:
		}
		for _, msg := range b.mb.Fetch() {
			// Errors (gateway outage) drop the message, as real
			// gateways silently do.
			_ = b.carrier.Send(msg.From, b.number, msg.Body)
		}
	}
}
