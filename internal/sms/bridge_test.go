package sms

import (
	"errors"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
	"simba/internal/email"
)

func newBridgeFixture(t *testing.T) (*clock.Sim, *email.Service, *Carrier) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	emSvc, err := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(1), Delay: dist.Fixed(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := NewCarrier(Config{Clock: sim, RNG: dist.NewRNG(2), Delay: dist.Fixed(3 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	return sim, emSvc, carrier
}

func TestAttachGatewayValidation(t *testing.T) {
	sim, emSvc, carrier := newBridgeFixture(t)
	if _, err := AttachGateway(nil, emSvc, carrier, "555"); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := AttachGateway(sim, nil, carrier, "555"); err == nil {
		t.Fatal("nil email service accepted")
	}
	if _, err := AttachGateway(sim, emSvc, nil, "555"); err == nil {
		t.Fatal("nil carrier accepted")
	}
	if _, err := AttachGateway(sim, emSvc, carrier, "555"); !errors.Is(err, ErrUnknownNumber) {
		t.Fatalf("unprovisioned number = %v", err)
	}
}

func TestBridgeForwardsEmailToPhone(t *testing.T) {
	sim, emSvc, carrier := newBridgeFixture(t)
	phone, err := carrier.Provision("5551234")
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttachGateway(sim, emSvc, carrier, "5551234")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if b.Address() != "5551234@sms.sim" {
		t.Fatalf("Address = %q", b.Address())
	}
	if err := emSvc.Submit("buddy@sim", b.Address(), "subject", "sms body"); err != nil {
		t.Fatal(err)
	}
	// Email transit 1s → bridge pump → SMS transit 3s.
	sim.RunFor(15*time.Second, time.Second)
	msgs := phone.Fetch()
	if len(msgs) != 1 || msgs[0].Text != "sms body" || msgs[0].From != "buddy@sim" {
		t.Fatalf("phone got %+v", msgs)
	}
}

func TestBridgeReusesExistingMailbox(t *testing.T) {
	sim, emSvc, carrier := newBridgeFixture(t)
	if _, err := carrier.Provision("555"); err != nil {
		t.Fatal(err)
	}
	if _, err := emSvc.CreateMailbox(GatewayAddress("555")); err != nil {
		t.Fatal(err)
	}
	b, err := AttachGateway(sim, emSvc, carrier, "555")
	if err != nil {
		t.Fatalf("AttachGateway with pre-existing mailbox: %v", err)
	}
	b.Stop()
	b.Stop() // idempotent
}

func TestBridgeStopHaltsForwarding(t *testing.T) {
	sim, emSvc, carrier := newBridgeFixture(t)
	phone, err := carrier.Provision("555")
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttachGateway(sim, emSvc, carrier, "555")
	if err != nil {
		t.Fatal(err)
	}
	b.Stop()
	if err := emSvc.Submit("x@sim", b.Address(), "s", "text"); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(15*time.Second, time.Second)
	if phone.Len() != 0 {
		t.Fatal("stopped bridge forwarded a message")
	}
}

func TestBridgePollFallbackCatchesCoalescedMail(t *testing.T) {
	// Several messages landing between pump wakeups coalesce into one
	// notification; the bridge's Fetch drains them all.
	sim, emSvc, carrier := newBridgeFixture(t)
	phone, err := carrier.Provision("555")
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttachGateway(sim, emSvc, carrier, "555")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	for i := 0; i < 4; i++ {
		if err := emSvc.Submit("x@sim", b.Address(), "s", "t"); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(20*time.Second, time.Second)
	if got := phone.Len(); got != 4 {
		t.Fatalf("phone has %d messages, want 4", got)
	}
}
