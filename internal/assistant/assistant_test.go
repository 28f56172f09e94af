package assistant

import (
	"strings"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
)

type fixture struct {
	t     *testing.T
	sim   *clock.Sim
	asst  *Assistant
	inbox *email.Mailbox
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sim := clock.NewSim(time.Time{})
	emSvc, err := email.NewService(email.Config{Clock: sim, RNG: dist.NewRNG(1), Delay: dist.Fixed(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	inbox, err := emSvc.CreateMailbox("buddy@sim")
	if err != nil {
		t.Fatal(err)
	}
	sender, err := core.NewDirectEmail(emSvc, "assistant@sim")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(sim, nil, sender)
	if err != nil {
		t.Fatal(err)
	}
	reg := addr.NewRegistry("buddy")
	if err := reg.Register(addr.Address{Type: addr.TypeEmail, Name: "Buddy email", Target: "buddy@sim", Enabled: true}); err != nil {
		t.Fatal(err)
	}
	mode := &dmode.Mode{Name: "email", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "Buddy email"}}}}}
	target, err := core.NewTarget(engine, reg, mode)
	if err != nil {
		t.Fatal(err)
	}
	asst, err := New(Config{Clock: sim, Target: target, IdleThreshold: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, sim: sim, asst: asst, inbox: inbox}
}

func (f *fixture) goIdle() {
	f.t.Helper()
	f.sim.RunFor(11*time.Minute, time.Minute)
	if !f.asst.active() {
		f.t.Fatal("assistant not active after idle period")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestIdleTracking(t *testing.T) {
	f := newFixture(t)
	if f.asst.IdleFor() != 0 {
		t.Fatalf("IdleFor = %v at start", f.asst.IdleFor())
	}
	f.sim.RunFor(5*time.Minute, time.Minute)
	if got := f.asst.IdleFor(); got < 5*time.Minute {
		t.Fatalf("IdleFor = %v", got)
	}
	f.asst.Activity()
	if got := f.asst.IdleFor(); got != 0 {
		t.Fatalf("IdleFor after activity = %v", got)
	}
}

func TestEmailForwardedOnlyWhenAwayAndImportant(t *testing.T) {
	f := newFixture(t)
	// User present: nothing forwarded.
	f.asst.IncomingEmail("boss@corp", "urgent!", alert.UrgencyHigh)
	if f.asst.AlertsSent() != 0 {
		t.Fatal("forwarded while user present")
	}
	f.goIdle()
	// Low importance: suppressed.
	f.asst.IncomingEmail("list@corp", "newsletter", alert.UrgencyNormal)
	if f.asst.AlertsSent() != 0 {
		t.Fatal("forwarded low-importance email")
	}
	// High importance while away: forwarded.
	f.asst.IncomingEmail("boss@corp", "urgent!", alert.UrgencyHigh)
	if f.asst.AlertsSent() != 1 {
		t.Fatalf("AlertsSent = %d", f.asst.AlertsSent())
	}
	if f.asst.SuppressedEmails() != 2 {
		t.Fatalf("SuppressedEmails = %d", f.asst.SuppressedEmails())
	}
	f.sim.RunFor(5*time.Second, time.Second)
	msgs := f.inbox.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("buddy mailbox has %d messages", len(msgs))
	}
	var a alert.Alert
	if err := a.UnmarshalText([]byte(msgs[0].Body)); err != nil {
		t.Fatal(err)
	}
	if a.Source != "desktop-assistant" || !strings.HasPrefix(a.Subject, "Email: ") {
		t.Fatalf("alert = %+v", a)
	}
	if a.Keywords[0] != "Email" {
		t.Fatalf("keywords = %v", a.Keywords)
	}
}

func TestEmailsReadElsewhereSuppresses(t *testing.T) {
	f := newFixture(t)
	f.goIdle()
	f.asst.SetEmailsReadElsewhere(true)
	f.asst.IncomingEmail("boss@corp", "urgent!", alert.UrgencyHigh)
	if f.asst.AlertsSent() != 0 {
		t.Fatal("forwarded despite reading elsewhere")
	}
	f.asst.SetEmailsReadElsewhere(false)
	f.asst.IncomingEmail("boss@corp", "urgent again", alert.UrgencyHigh)
	if f.asst.AlertsSent() != 1 {
		t.Fatal("not forwarded after flag cleared")
	}
}

func TestReminderPopsOnScreenWhenPresent(t *testing.T) {
	f := newFixture(t)
	f.asst.ScheduleReminder("standup", alert.UrgencyHigh, 2*time.Minute)
	f.sim.RunFor(3*time.Minute, 30*time.Second)
	// User was active 3 minutes ago — still "present" (under threshold).
	if f.asst.AlertsSent() != 0 || f.asst.OnScreenPopups() != 1 {
		t.Fatalf("sent=%d popups=%d", f.asst.AlertsSent(), f.asst.OnScreenPopups())
	}
}

func TestReminderForwardedWhenAway(t *testing.T) {
	f := newFixture(t)
	f.asst.ScheduleReminder("board meeting", alert.UrgencyCritical, 20*time.Minute)
	f.sim.RunFor(25*time.Minute, time.Minute)
	if f.asst.AlertsSent() != 1 {
		t.Fatalf("AlertsSent = %d", f.asst.AlertsSent())
	}
	f.sim.RunFor(5*time.Second, time.Second)
	msgs := f.inbox.Fetch()
	if len(msgs) != 1 {
		t.Fatalf("buddy mailbox has %d messages", len(msgs))
	}
	var a alert.Alert
	if err := a.UnmarshalText([]byte(msgs[0].Body)); err != nil {
		t.Fatal(err)
	}
	if a.Keywords[0] != "Reminder" || !strings.Contains(a.Subject, "board meeting") {
		t.Fatalf("alert = %+v", a)
	}
}

func TestLowImportanceReminderNeverForwarded(t *testing.T) {
	f := newFixture(t)
	f.asst.ScheduleReminder("water plants", alert.UrgencyLow, 20*time.Minute)
	f.sim.RunFor(25*time.Minute, time.Minute)
	if f.asst.AlertsSent() != 0 || f.asst.OnScreenPopups() != 1 {
		t.Fatalf("sent=%d popups=%d", f.asst.AlertsSent(), f.asst.OnScreenPopups())
	}
}
