package simba_test

import (
	"path/filepath"
	"testing"
	"time"

	"simba"
)

// TestPublicAPIQuickstart walks the full public-API path: world →
// buddy → user → source link → alert → receipt.
func TestPublicAPIQuickstart(t *testing.T) {
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.CreatePersonalAccounts("alice-im", []string{"alice@work.sim"}, "5551234"); err != nil {
		t.Fatal(err)
	}

	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle:                   "my-buddy",
		EmailAddress:               "buddy@sim",
		LogPath:                    filepath.Join(t.TempDir(), "buddy.plog"),
		DisableNightlyRejuvenation: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The user's profile at the buddy.
	buddy.Classifier().Accept(simba.SourceRule{Source: "quickstart", Extract: simba.ExtractNative})
	buddy.Aggregator().Map("Stocks", "Investment")
	profile, err := buddy.Store().RegisterUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true},
		{Type: simba.TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true},
		{Type: simba.TypeSMS, Name: "Cell SMS", Target: simba.SMSGatewayAddress("5551234"), Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			t.Fatal(err)
		}
	}
	mode := simba.IMThenEmailMode("MSN IM", "Work email", simba.ModeDuration(10*time.Second))
	if err := profile.DefineMode(mode); err != nil {
		t.Fatal(err)
	}
	if err := buddy.Store().Subscribe("Investment", "alice", "IMThenEmail"); err != nil {
		t.Fatal(err)
	}

	user, err := simba.NewUser(world, simba.UserOptions{
		Name: "alice", IMHandle: "alice-im",
		EmailAddresses: []string{"alice@work.sim"}, PhoneNumber: "5551234",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Start(); err != nil {
		t.Fatal(err)
	}
	defer user.Stop()

	if err := simba.StartBuddy(world, buddy); err != nil {
		t.Fatal(err)
	}
	defer buddy.Kill()

	link, err := simba.NewSourceLink(world, "src-im", "src@sim", buddy, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Start(); err != nil {
		t.Fatal(err)
	}
	defer link.Stop()

	a := &simba.Alert{
		ID:       simba.NextAlertID("qs"),
		Source:   "quickstart",
		Keywords: []string{"Stocks"},
		Subject:  "MSFT earnings out",
		Body:     "Quarterly results beat expectations.",
		Urgency:  simba.UrgencyHigh,
		Created:  world.Clock.Now(),
	}
	var rep *simba.Report
	var derr error
	if err := world.Clock.Drive(func() { rep, derr = link.Deliver(a) }, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	if !rep.Delivered || rep.DeliveredVia != "Buddy IM" {
		t.Fatalf("report = %+v", rep)
	}
	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() == 1 }, 500*time.Millisecond, time.Minute) {
		t.Fatal("alert never reached the user")
	}
	receipts := user.Receipts()
	if receipts[0].Channel != simba.TypeIM || receipts[0].Alert.Keywords[0] != "Investment" {
		t.Fatalf("receipt = %+v", receipts[0])
	}
}

// TestFigure4ModeRoundTrip exercises the XML surface of the public API.
func TestFigure4ModeRoundTrip(t *testing.T) {
	m := simba.Figure4Mode()
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := simba.ParseDeliveryMode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Urgent" || len(got.Blocks) != 2 {
		t.Fatalf("mode = %+v", got)
	}
}

// TestWatchdogSupervisesBuddy exercises the MDC path of the public API.
func TestWatchdogSupervisesBuddy(t *testing.T) {
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle:                   "wd-buddy",
		EmailAddress:               "wd@sim",
		LogPath:                    filepath.Join(t.TempDir(), "buddy.plog"),
		DisableNightlyRejuvenation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wd, err := simba.NewWatchdog(world, buddy)
	if err != nil {
		t.Fatal(err)
	}
	wd.Start()
	defer wd.Stop()
	if !world.Clock.RunUntil(buddy.Running, time.Second, time.Minute) {
		t.Fatal("buddy never started under watchdog")
	}
	buddy.InjectCrash()
	if !world.Clock.RunUntil(func() bool { return !buddy.Running() }, time.Second, time.Minute) {
		t.Fatal("crash not observed")
	}
	if !world.Clock.RunUntil(buddy.Running, 5*time.Second, 5*time.Minute) {
		t.Fatal("watchdog never restarted the buddy")
	}
	if wd.Restarts() != 1 {
		t.Fatalf("Restarts = %d", wd.Restarts())
	}
}
