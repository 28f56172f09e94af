package sms

import (
	"errors"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

func newTestCarrier(t *testing.T, lossP float64) (*Carrier, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	c, err := NewCarrier(Config{
		Clock:           sim,
		RNG:             dist.NewRNG(1),
		Delay:           dist.Fixed(8 * time.Second),
		LossProbability: lossP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, sim
}

func TestGatewayAddress(t *testing.T) {
	if got := GatewayAddress("5551234"); got != "5551234@sms.sim" {
		t.Fatalf("GatewayAddress = %q", got)
	}
}

func TestNewCarrierValidation(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	if _, err := NewCarrier(Config{RNG: dist.NewRNG(1)}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := NewCarrier(Config{Clock: sim}); err == nil {
		t.Fatal("missing rng accepted")
	}
	if _, err := NewCarrier(Config{Clock: sim, RNG: dist.NewRNG(1), LossProbability: -0.1}); err == nil {
		t.Fatal("bad loss probability accepted")
	}
}

func TestProvision(t *testing.T) {
	c, _ := newTestCarrier(t, 0)
	if _, err := c.Provision(""); err == nil {
		t.Fatal("empty number accepted")
	}
	p, err := c.Provision("5551234")
	if err != nil {
		t.Fatal(err)
	}
	if p.Number() != "5551234" || !p.Covered() {
		t.Fatalf("phone = %+v", p)
	}
	if _, err := c.Provision("5551234"); err == nil {
		t.Fatal("duplicate number accepted")
	}
	got, ok := c.Phone("5551234")
	if !ok || got != p {
		t.Fatal("Phone lookup failed")
	}
}

func TestSendDelivers(t *testing.T) {
	c, sim := newTestCarrier(t, 0)
	p, _ := c.Provision("5551234")
	sent := sim.Now()
	if err := c.Send("simba", "5551234", "alert!"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(7 * time.Second)
	if p.Len() != 0 {
		t.Fatal("delivered early")
	}
	sim.Advance(time.Second)
	if got := p.Len(); got != 1 {
		t.Fatalf("p.Len() = %d, want 1", got)
	}
	msgs := p.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	if msgs[0].Text != "alert!" || msgs[0].From != "simba" {
		t.Fatalf("message = %+v", msgs[0])
	}
	if got := msgs[0].DeliveredAt.Sub(sent); got != 8*time.Second {
		t.Fatalf("latency = %v", got)
	}
	select {
	case <-p.Notify():
	default:
		t.Fatal("no notification")
	}
}

func TestSendToUnknownNumber(t *testing.T) {
	c, _ := newTestCarrier(t, 0)
	if err := c.Send("x", "000", "t"); !errors.Is(err, ErrUnknownNumber) {
		t.Fatalf("Send = %v", err)
	}
}

func TestGatewayOutage(t *testing.T) {
	c, sim := newTestCarrier(t, 0)
	_, _ = c.Provision("5551234")
	c.Outage().Set(true, sim.Now())
	if err := c.Send("x", "5551234", "t"); !errors.Is(err, ErrGatewayDown) {
		t.Fatalf("Send during outage = %v", err)
	}
	c.Outage().Set(false, sim.Now())
	if err := c.Send("x", "5551234", "t"); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageGapDropsAtDelivery(t *testing.T) {
	c, sim := newTestCarrier(t, 0)
	p, _ := c.Provision("5551234")
	if err := c.Send("x", "5551234", "t"); err != nil {
		t.Fatal(err)
	}
	p.SetCovered(false)
	sim.Advance(time.Minute)
	if got := c.Lost(); got != 1 {
		t.Fatalf("c.Lost() = %d, want 1", got)
	}
	if p.Len() != 0 {
		t.Fatal("delivered without coverage")
	}
	if c.Lost() != 1 {
		t.Fatalf("Lost() = %d", c.Lost())
	}
	p.SetCovered(true)
	if err := c.Send("x", "5551234", "t2"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Minute)
	if got := p.Len(); got != 1 {
		t.Fatalf("p.Len() = %d, want 1", got)
	}
	if p.Len() != 1 {
		t.Fatal("not delivered after coverage restored")
	}
}

func TestSilentLossAccounting(t *testing.T) {
	c, sim := newTestCarrier(t, 0.4)
	p, _ := c.Provision("5551234")
	const n = 400
	for i := 0; i < n; i++ {
		if err := c.Send("x", "5551234", "t"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Minute)
	if got := p.Len() + c.Lost(); got != n {
		t.Fatalf("p.Len()+c.Lost() = %d, want n", got)
	}
	if got := p.Len() + c.Lost(); got != n {
		t.Fatalf("delivered+lost = %d, want %d", got, n)
	}
	if c.Lost() < n/5 || c.Lost() > 3*n/5 {
		t.Fatalf("Lost() = %d of %d with p=0.4", c.Lost(), n)
	}
}

func TestDefaultDelayHasTail(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	c, err := NewCarrier(Config{Clock: sim, RNG: dist.NewRNG(5)})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Provision("5551234")
	const n = 300
	for i := 0; i < n; i++ {
		if err := c.Send("x", "5551234", "t"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(30 * time.Second)
	fast := len(p.Fetch())
	sim.Advance(72 * time.Hour)
	if got := fast + p.Len(); got < n-1 { // the extreme tail may exceed 72h; tolerate one straggler
		t.Fatalf("delivered %d of %d after 72h", got, n)
	}
	if fast < n/2 || fast == n {
		t.Fatalf("delay distribution off: %d/%d within 30s", fast, n)
	}
}
