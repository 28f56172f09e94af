package enduser

import (
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/email"
	"simba/internal/im"
	"simba/internal/sms"
)

type fixture struct {
	sim     *clock.Sim
	imSvc   *im.Service
	emSvc   *email.Service
	carrier *sms.Carrier
	user    *User
	sender  *core.DirectIM
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	imSvc, err := im.NewService(im.Config{Clock: sim, RNG: dist.NewRNG(1), HopDelay: dist.Fixed(300 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	emSvc, err := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(2), Delay: dist.Fixed(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := sms.NewCarrier(sms.Config{Clock: sim, RNG: dist.NewRNG(3), Delay: dist.Fixed(5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"alice-im", "sender"} {
		if err := imSvc.Register(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := emSvc.CreateMailbox("alice@x"); err != nil {
		t.Fatal(err)
	}
	if _, err := carrier.Provision("555"); err != nil {
		t.Fatal(err)
	}
	user, err := New(Config{
		Clock:            sim,
		Name:             "alice",
		IMService:        imSvc,
		IMHandle:         "alice-im",
		EmailService:     emSvc,
		EmailAddresses:   []string{"alice@x"},
		Carrier:          carrier,
		PhoneNumber:      "555",
		EmailCheckPeriod: time.Minute,
		SMSReadDelay:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(user.Stop)
	sender, err := core.NewDirectIM(sim, imSvc, "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sender.Stop)
	return &fixture{sim: sim, imSvc: imSvc, emSvc: emSvc, carrier: carrier, user: user, sender: sender}
}

func payload(t *testing.T, sim *clock.Sim, id string) (string, *alert.Alert) {
	t.Helper()
	a := &alert.Alert{
		ID: id, Source: "src", Subject: "s", Urgency: alert.UrgencyNormal, Created: sim.Now(),
	}
	data, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(data), a
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing clock accepted")
	}
	sim := clock.NewSim(time.Time{})
	carrier, _ := sms.NewCarrier(sms.Config{Clock: sim, RNG: dist.NewRNG(1)})
	if _, err := New(Config{Clock: sim, Carrier: carrier, PhoneNumber: "none"}); err == nil {
		t.Fatal("unprovisioned phone accepted")
	}
}

func TestIMReceiptAndAck(t *testing.T) {
	f := newFixture(t)
	text, a := payload(t, f.sim, "a1")
	if _, err := f.sender.Send("alice-im", text); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(3*time.Second, 500*time.Millisecond)
	receipts := f.user.Receipts()
	if len(receipts) != 1 || receipts[0].Channel != addr.TypeIM {
		t.Fatalf("receipts = %+v", receipts)
	}
	if receipts[0].Alert.DedupKey() != a.DedupKey() {
		t.Fatal("wrong alert recorded")
	}
	if receipts[0].Latency <= 0 || receipts[0].Latency > 2*time.Second {
		t.Fatalf("latency = %v", receipts[0].Latency)
	}
}

func TestAwayUserDoesNotAck(t *testing.T) {
	f := newFixture(t)
	f.user.SetPresent(false)
	if f.user.Present() {
		t.Fatal("Present() = true")
	}
	text, _ := payload(t, f.sim, "a1")
	if _, err := f.sender.Send("alice-im", text); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(5*time.Second, time.Second)
	if f.user.ReceiptCount() != 0 {
		t.Fatal("away user recorded a receipt")
	}
}

func TestAckDelay(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	imSvc, _ := im.NewService(im.Config{Clock: sim, RNG: dist.NewRNG(1), HopDelay: dist.Fixed(100 * time.Millisecond)})
	_ = imSvc.Register("u")
	_ = imSvc.Register("s")
	user, err := New(Config{Clock: sim, IMService: imSvc, IMHandle: "u", AckDelay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Start(); err != nil {
		t.Fatal(err)
	}
	defer user.Stop()
	sender, _ := core.NewDirectIM(sim, imSvc, "s", nil)
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	defer sender.Stop()
	text := "SIMBA-ALERT/1\nID: x\nSOURCE: s\nURGENCY: normal\nCREATED: 985597200000000000\nBODY:\n"
	if _, err := sender.Send("u", text); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(2*time.Second, 500*time.Millisecond)
	if user.ReceiptCount() != 0 {
		t.Fatal("receipt before think time")
	}
	sim.RunFor(3*time.Second, 500*time.Millisecond)
	if user.ReceiptCount() != 1 {
		t.Fatalf("ReceiptCount = %d", user.ReceiptCount())
	}
}

func TestEmailReceiptOnCheck(t *testing.T) {
	f := newFixture(t)
	text, _ := payload(t, f.sim, "e1")
	if err := f.emSvc.Submit("buddy@x", "alice@x", "subject", text); err != nil {
		t.Fatal(err)
	}
	// Transit 10s + check period up to 1m.
	f.sim.RunFor(2*time.Minute, 5*time.Second)
	receipts := f.user.Receipts()
	if len(receipts) != 1 || receipts[0].Channel != addr.TypeEmail {
		t.Fatalf("receipts = %+v", receipts)
	}
}

func TestSMSReceiptAfterReadDelay(t *testing.T) {
	f := newFixture(t)
	text, _ := payload(t, f.sim, "s1")
	if err := f.carrier.Send("buddy", "555", text); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(30*time.Second, 2*time.Second)
	receipts := f.user.Receipts()
	if len(receipts) != 1 || receipts[0].Channel != addr.TypeSMS {
		t.Fatalf("receipts = %+v", receipts)
	}
	// 5s transit + 5s read delay.
	if receipts[0].Latency < 10*time.Second {
		t.Fatalf("latency = %v", receipts[0].Latency)
	}
}

func TestDuplicateDiscardedByTimestamp(t *testing.T) {
	f := newFixture(t)
	text, _ := payload(t, f.sim, "d1")
	for i := 0; i < 3; i++ {
		if _, err := f.sender.Send("alice-im", text); err != nil {
			t.Fatal(err)
		}
	}
	f.sim.RunFor(5*time.Second, time.Second)
	if f.user.ReceiptCount() != 1 {
		t.Fatalf("ReceiptCount = %d", f.user.ReceiptCount())
	}
	if f.user.Duplicates() != 2 {
		t.Fatalf("Duplicates = %d", f.user.Duplicates())
	}
}

func TestNonAlertMessagesIgnored(t *testing.T) {
	f := newFixture(t)
	if _, err := f.sender.Send("alice-im", "hey, lunch?"); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(2*time.Second, 500*time.Millisecond)
	if f.user.ReceiptCount() != 0 {
		t.Fatal("plain IM recorded as alert")
	}
}
