package email

import (
	"errors"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

func newTestService(t *testing.T, lossP float64) (*Service, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	svc, err := NewService(Config{
		Clock:           sim,
		RNG:             dist.NewRNG(1),
		Delay:           dist.Fixed(20 * time.Second),
		LossProbability: lossP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, sim
}

func TestNewServiceValidation(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	if _, err := NewService(Config{RNG: dist.NewRNG(1)}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := NewService(Config{Clock: sim}); err == nil {
		t.Fatal("missing rng accepted")
	}
	if _, err := NewService(Config{Clock: sim, RNG: dist.NewRNG(1), LossProbability: 1.5}); err == nil {
		t.Fatal("bad loss probability accepted")
	}
}

func TestCreateMailbox(t *testing.T) {
	svc, _ := newTestService(t, 0)
	if _, err := svc.CreateMailbox(""); err == nil {
		t.Fatal("empty address accepted")
	}
	mb, err := svc.CreateMailbox("alice@work.sim")
	if err != nil {
		t.Fatal(err)
	}
	if mb.Address() != "alice@work.sim" {
		t.Fatalf("Address() = %q", mb.Address())
	}
	if _, err := svc.CreateMailbox("alice@work.sim"); err == nil {
		t.Fatal("duplicate mailbox accepted")
	}
	got, ok := svc.Mailbox("alice@work.sim")
	if !ok || got != mb {
		t.Fatal("Mailbox lookup failed")
	}
	if _, ok := svc.Mailbox("ghost@x"); ok {
		t.Fatal("found nonexistent mailbox")
	}
}

func TestSubmitDeliversAfterDelay(t *testing.T) {
	svc, sim := newTestService(t, 0)
	mb, _ := svc.CreateMailbox("alice@work.sim")
	submitted := sim.Now()
	if err := svc.Submit("bob@x", "alice@work.sim", "hi", "body"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(19 * time.Second)
	if mb.Len() != 0 {
		t.Fatal("delivered early")
	}
	sim.Advance(time.Second)
	if got := mb.Len(); got != 1 {
		t.Fatalf("mb.Len() = %d, want 1", got)
	}
	msgs := mb.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages", len(msgs))
	}
	m := msgs[0]
	if m.From != "bob@x" || m.Subject != "hi" || m.Body != "body" {
		t.Fatalf("message = %+v", m)
	}
	if got := m.DeliveredAt.Sub(submitted); got != 20*time.Second {
		t.Fatalf("latency = %v", got)
	}
	if mb.Len() != 0 {
		t.Fatal("Fetch did not drain")
	}
}

func TestSubmitToUnknownBounces(t *testing.T) {
	svc, _ := newTestService(t, 0)
	if err := svc.Submit("a", "nobody@x", "s", "b"); !errors.Is(err, ErrNoSuchMailbox) {
		t.Fatalf("Submit = %v", err)
	}
}

func TestOutageFailsSubmit(t *testing.T) {
	svc, sim := newTestService(t, 0)
	_, _ = svc.CreateMailbox("alice@x")
	svc.Outage().Set(true, sim.Now())
	if err := svc.Submit("b", "alice@x", "s", "b"); !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("Submit during outage = %v", err)
	}
	svc.Outage().Set(false, sim.Now())
	if err := svc.Submit("b", "alice@x", "s", "b"); err != nil {
		t.Fatalf("Submit after outage = %v", err)
	}
}

func TestSilentLoss(t *testing.T) {
	svc, sim := newTestService(t, 0.5)
	mb, _ := svc.CreateMailbox("alice@x")
	const n = 400
	for i := 0; i < n; i++ {
		if err := svc.Submit("b", "alice@x", "s", "b"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Minute)
	if got := mb.Len() + svc.Lost(); got != n {
		t.Fatalf("mb.Len()+svc.Lost() = %d, want n", got)
	}
	delivered := mb.Len()
	lost := svc.Lost()
	if delivered+lost != n {
		t.Fatalf("delivered %d + lost %d != %d", delivered, lost, n)
	}
	if lost < n/4 || lost > 3*n/4 {
		t.Fatalf("lost %d of %d with p=0.5", lost, n)
	}
}

func TestNotifyCoalesces(t *testing.T) {
	svc, sim := newTestService(t, 0)
	mb, _ := svc.CreateMailbox("alice@x")
	for i := 0; i < 3; i++ {
		if err := svc.Submit("b", "alice@x", "s", "b"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Minute)
	if got := mb.Len(); got != 3 {
		t.Fatalf("mb.Len() = %d, want 3", got)
	}
	select {
	case <-mb.Notify():
	default:
		t.Fatal("no new-mail notification")
	}
	// Tokens coalesce: at most one more pending.
	drained := 0
	for {
		select {
		case <-mb.Notify():
			drained++
			if drained > 1 {
				t.Fatal("notifications did not coalesce")
			}
			continue
		default:
		}
		break
	}
	if got := len(mb.Fetch()); got != 3 {
		t.Fatalf("Fetch() = %d messages", got)
	}
}

func TestPeekDoesNotDrain(t *testing.T) {
	svc, sim := newTestService(t, 0)
	mb, _ := svc.CreateMailbox("alice@x")
	if err := svc.Submit("b", "alice@x", "s", "b"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Minute)
	if got := mb.Len(); got != 1 {
		t.Fatalf("mb.Len() = %d, want 1", got)
	}
	if got := len(mb.Peek()); got != 1 {
		t.Fatalf("Peek() = %d", got)
	}
	if mb.Len() != 1 {
		t.Fatal("Peek drained the mailbox")
	}
	peeked := mb.Peek()
	peeked[0].Subject = "mutated"
	if mb.Peek()[0].Subject == "mutated" {
		t.Fatal("Peek aliases internal slice")
	}
}

func TestDefaultDelayIsHeavyTailed(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	svc, err := NewService(Config{Clock: sim, RNG: dist.NewRNG(7)})
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := svc.CreateMailbox("a@x")
	const n = 300
	for i := 0; i < n; i++ {
		if err := svc.Submit("b", "a@x", "s", "b"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(2 * time.Minute)
	fast := len(mb.Fetch())
	sim.Advance(48 * time.Hour)
	if got := fast + mb.Len(); got != n {
		t.Fatalf("fast+mb.Len() = %d, want n", got)
	}
	total := fast + mb.Len()
	if total != n {
		t.Fatalf("only %d of %d delivered after 48h", total, n)
	}
	if fast == 0 || fast == n {
		t.Fatalf("delay distribution lacks spread: %d/%d within 2m", fast, n)
	}
}
