package simba_test

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"simba"
)

// A user writes a delivery mode as an XML document; this one is the
// paper's Figure 4.
func ExampleParseDeliveryMode() {
	m, err := simba.ParseDeliveryMode([]byte(`<deliveryMode name="Urgent">
  <block timeout="30s">
    <action address="MSN IM"></action>
    <action address="Cell SMS"></action>
  </block>
  <block>
    <action address="Work email"></action>
    <action address="Home email"></action>
  </block>
</deliveryMode>`))
	if err != nil {
		log.Fatal(err)
	}
	for i, b := range m.Blocks {
		fmt.Printf("block %d, timeout %s:", i+1, b.EffectiveTimeout())
		for _, a := range b.Actions {
			fmt.Printf(" %q", a.Address)
		}
		fmt.Println()
	}
	doc, _ := m.Marshal()
	figure4, _ := simba.Figure4Mode().Marshal()
	fmt.Println("Figure 4:", bytes.Equal(doc, figure4))
	// Output:
	// block 1, timeout 30s: "MSN IM" "Cell SMS"
	// block 2, timeout 30s: "Work email" "Home email"
	// Figure 4: true
}

// A buddy texts the user through the carrier directly, instead of
// riding the email-to-SMS gateway, once DirectSMSChannel is registered
// under TypeSMS on each buddy incarnation's channel registry.
func ExampleDirectSMSChannel() {
	dir, err := os.MkdirTemp("", "simba-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	if err := world.CreatePersonalAccounts("", nil, "5551234"); err != nil {
		log.Fatal(err)
	}
	buddy, err := simba.NewBuddy(world, simba.BuddyOptions{
		IMHandle: "sms-buddy", EmailAddress: "sms-buddy@sim",
		LogPath:                    filepath.Join(dir, "buddy.plog"),
		DisableNightlyRejuvenation: true,
		ConfigureChannels: func(reg *simba.ChannelRegistry) {
			reg.Register(simba.TypeSMS, simba.DirectSMSChannel(world.SMS, "5550000"))
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	buddy.Classifier().Accept(simba.SourceRule{Source: "garage", Extract: simba.ExtractNative})
	buddy.Aggregator().Map("Door", "Home")
	profile, err := buddy.Store().RegisterUser("bob")
	if err != nil {
		log.Fatal(err)
	}
	if err := profile.Addresses().Register(simba.Address{Type: simba.TypeSMS, Name: "Cell", Target: "5551234", Enabled: true}); err != nil {
		log.Fatal(err)
	}
	text := &simba.DeliveryMode{Name: "Text", Blocks: []simba.Block{{Actions: []simba.Action{{Address: "Cell"}}}}}
	if err := profile.DefineMode(text); err != nil {
		log.Fatal(err)
	}
	if err := buddy.Store().Subscribe("Home", "bob", "Text"); err != nil {
		log.Fatal(err)
	}
	user, err := simba.NewUser(world, simba.UserOptions{Name: "bob", PhoneNumber: "5551234"})
	if err != nil {
		log.Fatal(err)
	}
	if err := user.Start(); err != nil {
		log.Fatal(err)
	}
	defer user.Stop()
	if err := simba.StartBuddy(world, buddy); err != nil {
		log.Fatal(err)
	}
	defer buddy.Kill()
	link, err := simba.NewSourceLink(world, "garage-im", "garage@sim", buddy, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := link.Start(); err != nil {
		log.Fatal(err)
	}
	defer link.Stop()

	a := &simba.Alert{ID: simba.NextAlertID("garage"), Source: "garage", Keywords: []string{"Door"},
		Subject: "Garage door open", Urgency: simba.UrgencyHigh, Created: world.Clock.Now()}
	var derr error
	if err := world.Clock.Drive(func() { _, derr = link.Deliver(a) }, 500*time.Millisecond); err != nil || derr != nil {
		log.Fatal(err, derr)
	}
	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() == 1 }, time.Second, time.Minute) {
		log.Fatal("the text never arrived")
	}
	r := user.Receipts()[0]
	fmt.Println(r.Channel, r.Alert.Subject)
	// Output:
	// SMS Garage door open
}
