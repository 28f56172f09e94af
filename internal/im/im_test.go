package im

import (
	"errors"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dist"
)

func newTestService(t *testing.T) (*Service, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	svc, err := NewService(Config{
		Clock:    sim,
		RNG:      dist.NewRNG(1),
		HopDelay: dist.Fixed(300 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, sim
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(Config{RNG: dist.NewRNG(1)}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := NewService(Config{Clock: clock.NewSim(time.Time{})}); err == nil {
		t.Fatal("missing RNG accepted")
	}
}

func TestRegisterAndLogin(t *testing.T) {
	svc, _ := newTestService(t)
	if err := svc.Register(""); err == nil {
		t.Fatal("empty handle accepted")
	}
	if err := svc.Register("alice"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("alice"); err == nil {
		t.Fatal("duplicate handle accepted")
	}
	if _, err := svc.Login("nobody"); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Login(nobody) = %v", err)
	}
	sess, err := svc.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if !sess.LoggedIn() || sess.Handle() != "alice" {
		t.Fatal("session not live after login")
	}
}

func TestPresence(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	st, err := svc.Status("bob")
	if err != nil || st != StatusOffline {
		t.Fatalf("Status = %v, %v", st, err)
	}
	if _, err := svc.Status("ghost"); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Status(ghost) = %v", err)
	}
	bob, _ := svc.Login("bob")
	if st, _ := svc.Status("bob"); st != StatusOnline {
		t.Fatalf("Status after login = %v", st)
	}
	bob.Logout()
	if st, _ := svc.Status("bob"); st != StatusOffline {
		t.Fatalf("Status after logout = %v", st)
	}
	if st := StatusOnline.String(); st != "online" {
		t.Fatalf("String() = %q", st)
	}
	if st := Status(9).String(); st != "status(9)" {
		t.Fatalf("String() = %q", st)
	}
}

func TestSendDeliversAfterHopDelay(t *testing.T) {
	svc, sim := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	bob, _ := svc.Login("bob")

	sent := sim.Now()
	seq, err := alice.Send("bob", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	select {
	case <-bob.Inbox():
		t.Fatal("delivered before hop delay")
	default:
	}
	// Step to the hop's instant and no further: the delivery runs as its
	// own goroutine and stamps the clock's time, which a longer step
	// could have moved past before that goroutine ran.
	sim.Step(300 * time.Millisecond)
	select {
	case msg := <-bob.Inbox():
		if msg.From != "alice" || msg.To != "bob" || msg.Text != "hello" || msg.Seq != 1 {
			t.Fatalf("message = %+v", msg)
		}
		if got := msg.DeliveredAt.Sub(sent); got != 300*time.Millisecond {
			t.Fatalf("one-way latency = %v, want 300ms", got)
		}
	case <-time.After(5 * time.Second): // Sim runs the delivery as its own goroutine; it can trail Advance
		t.Fatal("message not delivered")
	}
}

func TestSendSequenceNumbersIncrease(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	_, _ = svc.Login("bob")
	for want := uint64(1); want <= 5; want++ {
		seq, err := alice.Send("bob", "x")
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
	}
}

func TestSendToOfflineFails(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	if _, err := alice.Send("bob", "x"); !errors.Is(err, ErrRecipientOffline) {
		t.Fatalf("Send to offline = %v", err)
	}
	if _, err := alice.Send("ghost", "x"); !errors.Is(err, ErrUnknownHandle) {
		t.Fatalf("Send to unknown = %v", err)
	}
}

func TestRecipientLogsOutMidFlight(t *testing.T) {
	svc, sim := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	bob, _ := svc.Login("bob")
	if _, err := alice.Send("bob", "x"); err != nil {
		t.Fatal(err)
	}
	bob.Logout()
	sim.Advance(time.Second)
	waitFor(t, func() bool { return svc.Dropped() == 1 })
	if got := svc.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}
}

func TestOutageFailsLoginSendAndStatus(t *testing.T) {
	svc, sim := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	_, _ = svc.Login("bob")

	svc.Outage().Set(true, sim.Now())
	if _, err := svc.Login("bob"); !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("Login during outage = %v", err)
	}
	if _, err := alice.Send("bob", "x"); !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("Send during outage = %v", err)
	}
	if _, err := svc.Status("bob"); !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("Status during outage = %v", err)
	}
	svc.Outage().Set(false, sim.Now())
	if _, err := alice.Send("bob", "x"); err != nil {
		t.Fatalf("Send after outage = %v", err)
	}
}

func TestInFlightMessageDroppedByOutage(t *testing.T) {
	svc, sim := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	bob, _ := svc.Login("bob")
	if _, err := alice.Send("bob", "x"); err != nil {
		t.Fatal(err)
	}
	svc.Outage().Set(true, sim.Now())
	sim.Advance(time.Second)
	waitFor(t, func() bool { return svc.Dropped() == 1 })
	select {
	case <-bob.Inbox():
		t.Fatal("message delivered during outage")
	default:
	}
	if svc.Dropped() != 1 {
		t.Fatalf("Dropped() = %d", svc.Dropped())
	}
}

func TestSecondLoginKicksFirst(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "alice")
	first, _ := svc.Login("alice")
	second, err := svc.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if first.LoggedIn() {
		t.Fatal("first session still live after second login")
	}
	if !second.LoggedIn() {
		t.Fatal("second session not live")
	}
	if _, err := first.Send("alice", "x"); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("Send on kicked session = %v", err)
	}
	if _, err := first.Status("alice"); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("Status on kicked session = %v", err)
	}
}

func TestForceLogout(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "alice", "bob")
	sess, _ := svc.Login("alice")
	if !svc.ForceLogout("alice") {
		t.Fatal("ForceLogout found no session")
	}
	if sess.LoggedIn() {
		t.Fatal("session live after ForceLogout")
	}
	if svc.ForceLogout("alice") {
		t.Fatal("second ForceLogout reported a session")
	}
	if svc.ForceLogout("ghost") {
		t.Fatal("ForceLogout(ghost) reported a session")
	}
}

func TestForceLogoutAll(t *testing.T) {
	svc, _ := newTestService(t)
	mustRegister(t, svc, "a", "b", "c")
	s1, _ := svc.Login("a")
	s2, _ := svc.Login("b")
	if n := svc.ForceLogoutAll(); n != 2 {
		t.Fatalf("ForceLogoutAll = %d, want 2", n)
	}
	if s1.LoggedIn() || s2.LoggedIn() {
		t.Fatal("sessions live after ForceLogoutAll")
	}
}

func TestInboxOverflowDrops(t *testing.T) {
	sim := clock.NewSim(time.Time{})
	svc, err := NewService(Config{
		Clock:     sim,
		RNG:       dist.NewRNG(1),
		HopDelay:  dist.Fixed(10 * time.Millisecond),
		InboxSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, svc, "alice", "bob")
	alice, _ := svc.Login("alice")
	_, _ = svc.Login("bob")
	for i := 0; i < 5; i++ {
		if _, err := alice.Send("bob", "x"); err != nil {
			t.Fatal(err)
		}
	}
	sim.Advance(time.Second)
	waitFor(t, func() bool { return svc.Dropped() == 3 })
	if got := svc.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
}

// waitFor polls cond for a bounded stretch of real time. Sim runs a
// delivery callback as its own goroutine, so a drop can trail Advance's
// return (it routinely does under -race); "has happened" assertions
// wait for it, "has not happened" ones stay immediate.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustRegister(t *testing.T, svc *Service, handles ...string) {
	t.Helper()
	for _, h := range handles {
		if err := svc.Register(h); err != nil {
			t.Fatal(err)
		}
	}
}
