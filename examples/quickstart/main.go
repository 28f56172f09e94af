// Command quickstart is the minimal SIMBA program: one simulated
// world, one MyAlertBuddy, one user, one alert source. It sends a
// single alert and shows it traveling source → buddy (IM with
// acknowledgement) → user (IM), with every latency measured in
// virtual time.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"simba"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A simulated world: virtual clock, IM/email/SMS services, a
	// machine for the buddy's client software.
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 1})
	if err != nil {
		return err
	}
	if err := world.CreatePersonalAccounts("alice-im", []string{"alice@work.sim"}, "5551234"); err != nil {
		return err
	}

	// MyAlertBuddy: the always-on personal alert router. Only ITS
	// addresses are ever given to alert services.
	tmp, err := os.MkdirTemp("", "simba-quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle:                   "my-alert-buddy",
		EmailAddress:               "buddy@sim",
		LogPath:                    filepath.Join(tmp, "buddy.plog"),
		DisableNightlyRejuvenation: true,
	})
	if err != nil {
		return err
	}

	// The user's configuration at the buddy: accepted sources, keyword
	// aggregation, addresses, a delivery mode, a subscription.
	buddy.Classifier().Accept(simba.SourceRule{Source: "quickstart", Extract: simba.ExtractNative})
	buddy.Aggregator().Map("Stocks", "Investment")
	profile, err := buddy.Store().RegisterUser("alice")
	if err != nil {
		return err
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true},
		{Type: simba.TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			return err
		}
	}
	mode := simba.IMThenEmailMode("MSN IM", "Work email", simba.ModeDuration(10*time.Second))
	if err := profile.DefineMode(mode); err != nil {
		return err
	}
	if err := buddy.Store().Subscribe("Investment", "alice", "IMThenEmail"); err != nil {
		return err
	}

	// The human at the other end: auto-acknowledges alert IMs.
	user, err := simba.NewUser(world, simba.UserOptions{
		Name: "alice", IMHandle: "alice-im", EmailAddresses: []string{"alice@work.sim"},
	})
	if err != nil {
		return err
	}
	if err := user.Start(); err != nil {
		return err
	}
	defer user.Stop()

	if err := simba.StartBuddy(world, buddy); err != nil {
		return err
	}
	defer buddy.Kill()
	fmt.Println("buddy started; user online")

	// An alert source, speaking "IM with acknowledgement, fallback
	// email" to the buddy.
	link, err := simba.NewSourceLink(world, "src-im", "src@sim", buddy, 15*time.Second)
	if err != nil {
		return err
	}
	if err := link.Start(); err != nil {
		return err
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
		return err
	}
	if derr != nil {
		return derr
	}
	fmt.Printf("source → buddy: delivered via %q, acknowledged in %v\n",
		rep.DeliveredVia, rep.Latency().Round(time.Millisecond))

	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() == 1 }, 500*time.Millisecond, time.Minute) {
		return fmt.Errorf("alert never reached the user")
	}
	r := user.Receipts()[0]
	fmt.Printf("buddy → user:   %q over %s, end-to-end %v (category %s)\n",
		r.Alert.Subject, r.Channel, r.Latency.Round(time.Millisecond), r.Alert.Keywords[0])
	fmt.Printf("buddy counters: %s\n", buddy.Counters())
	return nil
}
