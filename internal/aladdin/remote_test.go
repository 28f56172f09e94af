package aladdin

import (
	"strings"
	"testing"
	"time"
)

// remoteFixture extends the package fixture with the gateway mailbox
// and remote control.
func newRemoteFixture(t *testing.T) (*fixture, *RemoteControl) {
	t.Helper()
	f := newFixture(t)
	// The fixture's email service already exists inside it; rebuild the
	// pieces we need via the home's clock. We reuse the same service by
	// plumbing through the collector fixture: simplest is a dedicated
	// service here.
	rc, err := f.home.EnableRemoteControl(f.emSvc, "home-gw@sim", []string{"Owner@Family.sim"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Stop)
	return f, rc
}

func TestEnableRemoteControlValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.home.EnableRemoteControl(nil, "x@sim", nil); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := f.home.EnableRemoteControl(f.emSvc, "", nil); err == nil {
		t.Fatal("empty address accepted")
	}
}

func TestRemoteArmCommand(t *testing.T) {
	f, rc := newRemoteFixture(t)
	if err := f.emSvc.Submit("owner@family.sim", "home-gw@sim", "ALADDIN ARM", ""); err != nil {
		t.Fatal(err)
	}
	// Email transit (1s) + command poll + physical chain (~7s) + alert.
	f.sim.RunFor(30*time.Second, time.Second)
	if rc.Executed() != 1 {
		t.Fatalf("Executed = %d", rc.Executed())
	}
	alerts := f.sentAlerts()
	if len(alerts) != 1 || !strings.Contains(alerts[0].Subject, "armed") {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestRemoteSetSensorCommand(t *testing.T) {
	f, rc := newRemoteFixture(t)
	if _, err := f.home.AddSensor("basement-water", true); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(10*time.Second, time.Second)
	before := f.home.AlertsSent()
	if err := f.emSvc.Submit("owner@family.sim", "home-gw@sim", "ALADDIN SET basement-water ON", ""); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(30*time.Second, time.Second)
	if rc.Executed() != 1 {
		t.Fatalf("Executed = %d", rc.Executed())
	}
	if f.home.AlertsSent() != before+1 {
		t.Fatal("sensor command produced no alert")
	}
	s, _ := f.home.Sensor("basement-water")
	if s.State() != "ON" {
		t.Fatalf("sensor state = %q", s.State())
	}
}

func TestRemoteRejectsUnauthorizedAndMalformed(t *testing.T) {
	f, rc := newRemoteFixture(t)
	cases := []struct {
		from, subject string
	}{
		{"stranger@evil.sim", "ALADDIN DISARM"},      // unauthorized
		{"owner@family.sim", "hello there"},          // not a command
		{"owner@family.sim", "ALADDIN EXPLODE"},      // unknown verb
		{"owner@family.sim", "ALADDIN SET x"},        // malformed SET
		{"owner@family.sim", "ALADDIN SET ghost ON"}, // unknown sensor
	}
	for _, c := range cases {
		if err := f.emSvc.Submit(c.from, "home-gw@sim", c.subject, ""); err != nil {
			t.Fatal(err)
		}
	}
	f.sim.RunFor(30*time.Second, time.Second)
	if rc.Executed() != 0 {
		t.Fatalf("Executed = %d", rc.Executed())
	}
	if rc.Rejected() != len(cases) {
		t.Fatalf("Rejected = %d, want %d", rc.Rejected(), len(cases))
	}
}

func TestRemoteStopHaltsProcessing(t *testing.T) {
	f, rc := newRemoteFixture(t)
	rc.Stop()
	rc.Stop() // idempotent
	if err := f.emSvc.Submit("owner@family.sim", "home-gw@sim", "ALADDIN ARM", ""); err != nil {
		t.Fatal(err)
	}
	f.sim.RunFor(30*time.Second, time.Second)
	if rc.Executed() != 0 {
		t.Fatal("stopped remote control executed a command")
	}
}
