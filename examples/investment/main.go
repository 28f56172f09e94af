// Command investment demonstrates the dynamic-customization story of
// Section 3.3: three services' alerts aggregate into one personal
// "Investment" category; the user switches that whole category from
// SMS to IM with one operation at the buddy; and disabling the SMS
// address while traveling makes SMS blocks fail over to email — all
// without touching any of the three services.
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
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 2})
	if err != nil {
		return err
	}
	defer world.Close()
	if err := world.CreatePersonalAccounts("alice-im", []string{"alice@work.sim"}, "5551234"); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "simba-investment")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle: "my-alert-buddy", EmailAddress: "buddy@sim",
		LogPath:                    filepath.Join(tmp, "buddy.plog"),
		DisableNightlyRejuvenation: true,
	})
	if err != nil {
		return err
	}

	// Three financial services; their native keywords all aggregate
	// into the personal "Investment" category.
	for _, src := range []string{"yahoo-finance", "wsj", "cbs-marketwatch"} {
		buddy.Classifier().Accept(simba.SourceRule{Source: src, Extract: simba.ExtractNative})
	}
	agg := buddy.Aggregator()
	agg.Map("Stocks", "Investment")
	agg.Map("Financial news", "Investment")
	agg.Map("Earnings reports", "Investment")

	profile, err := buddy.Store().RegisterUser("alice")
	if err != nil {
		return err
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "MSN IM", Target: "alice-im", Enabled: true},
		{Type: simba.TypeSMS, Name: "Cell SMS", Target: simba.SMSGatewayAddress("5551234"), Enabled: true},
		{Type: simba.TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			return err
		}
	}
	smsFirst := &simba.DeliveryMode{Name: "SMSFirst", Blocks: []simba.Block{
		{Actions: []simba.Action{{Address: "Cell SMS"}}},
		{Actions: []simba.Action{{Address: "Work email"}}},
	}}
	imFirst := &simba.DeliveryMode{Name: "IMFirst", Blocks: []simba.Block{
		{Timeout: simba.ModeDuration(10 * time.Second), Actions: []simba.Action{{Address: "MSN IM"}}},
		{Actions: []simba.Action{{Address: "Work email"}}},
	}}
	for _, m := range []*simba.DeliveryMode{smsFirst, imFirst} {
		if err := profile.DefineMode(m); err != nil {
			return err
		}
	}
	if err := buddy.Store().Subscribe("Investment", "alice", "SMSFirst"); err != nil {
		return err
	}

	user, err := simba.NewUser(world, simba.UserOptions{
		Name: "alice", IMHandle: "alice-im",
		EmailAddresses: []string{"alice@work.sim"}, PhoneNumber: "5551234",
		EmailCheckPeriod: 30 * time.Second,
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

	link, err := simba.NewSourceLink(world, "finance-src", "finance@sim", buddy, 15*time.Second)
	if err != nil {
		return err
	}
	if err := link.Start(); err != nil {
		return err
	}
	defer link.Stop()

	send := func(source, keyword, subject string) error {
		a := &simba.Alert{
			ID: simba.NextAlertID("inv"), Source: source, Keywords: []string{keyword},
			Subject: subject, Urgency: simba.UrgencyHigh, Created: world.Clock.Now(),
		}
		return world.Clock.Drive(func() { _, _ = link.Deliver(a) }, 500*time.Millisecond)
	}
	waitReceipts := func(n int) *simba.Receipt {
		if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() >= n }, time.Second, 5*time.Minute) {
			log.Fatalf("receipt %d never arrived", n)
		}
		r := user.Receipts()[n-1]
		return &r
	}

	// Phase 1: all three services land in "Investment" via SMS.
	fmt.Println("--- phase 1: Investment category delivered by SMS ---")
	if err := send("yahoo-finance", "Stocks", "MSFT up 3%"); err != nil {
		return err
	}
	if err := send("wsj", "Financial news", "Fed holds rates"); err != nil {
		return err
	}
	if err := send("cbs-marketwatch", "Earnings reports", "Earnings preview"); err != nil {
		return err
	}
	for i := 1; i <= 3; i++ {
		r := waitReceipts(i)
		fmt.Printf("  %-28s → %s via %s in %v\n", r.Alert.Subject, r.Alert.Keywords[0], r.Channel, r.Latency.Round(time.Second))
	}

	// Phase 2: the one-stop switch — re-subscribe the category to the
	// IM-first mode. No service is touched.
	fmt.Println("--- phase 2: switch the whole category to IM with one call ---")
	if err := buddy.Store().Subscribe("Investment", "alice", "IMFirst"); err != nil {
		return err
	}
	if err := send("yahoo-finance", "Stocks", "MSFT up 5%"); err != nil {
		return err
	}
	r := waitReceipts(4)
	fmt.Printf("  %-28s → %s via %s in %v\n", r.Alert.Subject, r.Alert.Keywords[0], r.Channel, r.Latency.Round(time.Second))

	// Phase 3: traveling without cell coverage — disable the SMS
	// address; an SMS-first subscription falls back to email.
	fmt.Println("--- phase 3: SMS disabled while traveling; blocks fail over ---")
	if err := buddy.Store().Subscribe("Investment", "alice", "SMSFirst"); err != nil {
		return err
	}
	if err := profile.Addresses().SetEnabled("Cell SMS", false); err != nil {
		return err
	}
	user.SetPresent(false) // away from the desk too
	if err := send("wsj", "Financial news", "Market closes mixed"); err != nil {
		return err
	}
	r = waitReceipts(5)
	fmt.Printf("  %-28s → %s via %s in %v\n", r.Alert.Subject, r.Alert.Keywords[0], r.Channel, r.Latency.Round(time.Second))
	fmt.Printf("buddy counters: %s\n", buddy.Counters())
	return nil
}
