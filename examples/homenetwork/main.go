// Command homenetwork replays the paper's Section 5 Aladdin scenario:
// the kid comes home and disarms the security system with an RF remote
// control; the signal crosses the powerline transceiver to a monitor
// PC, becomes a Soft-State Store update, replicates over the phoneline
// Ethernet to the home gateway, and the Aladdin home server sends the
// alert through SIMBA to the parent's IM — about 11 seconds end to
// end. It then shows the soft-state side of the design: a garage-door
// sensor whose battery dies stops refreshing and raises a "Sensor
// Broken" alert.
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
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 3})
	if err != nil {
		return err
	}
	if err := world.CreatePersonalAccounts("parent-im", []string{"parent@work.sim"}, ""); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "simba-home")
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
	buddy.Classifier().Accept(simba.SourceRule{Source: "aladdin", Extract: simba.ExtractNative})
	agg := buddy.Aggregator()
	agg.Map("Security", "HomeSecurity")
	agg.Map("Sensor ON", "HomeSecurity")
	agg.Map("Sensor Broken", "HomeMaintenance")

	profile, err := buddy.Store().RegisterUser("parent")
	if err != nil {
		return err
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "MSN IM", Target: "parent-im", Enabled: true},
		{Type: simba.TypeEmail, Name: "Work email", Target: "parent@work.sim", Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			return err
		}
	}
	if err := profile.DefineMode(simba.IMThenEmailMode("MSN IM", "Work email", simba.ModeDuration(10*time.Second))); err != nil {
		return err
	}
	for _, cat := range []string{"HomeSecurity", "HomeMaintenance"} {
		if err := buddy.Store().Subscribe(cat, "parent", "IMThenEmail"); err != nil {
			return err
		}
	}

	parent, err := simba.NewUser(world, simba.UserOptions{
		Name: "parent", IMHandle: "parent-im", EmailAddresses: []string{"parent@work.sim"},
	})
	if err != nil {
		return err
	}
	if err := parent.Start(); err != nil {
		return err
	}
	defer parent.Stop()
	if err := simba.StartBuddy(world, buddy); err != nil {
		return err
	}
	defer buddy.Kill()

	link, err := simba.NewSourceLink(world, "aladdin-gw", "aladdin@home.sim", buddy, 15*time.Second)
	if err != nil {
		return err
	}
	if err := link.Start(); err != nil {
		return err
	}
	defer link.Stop()

	home, err := simba.NewHome(world, link, simba.HomeOptions{})
	if err != nil {
		return err
	}
	if _, err := home.AddSensor("garage-door", false); err != nil {
		return err
	}
	world.Clock.RunFor(10*time.Second, time.Second) // let the install settle
	home.StartHeartbeats()
	defer home.StopHeartbeats()

	// Scene 1: the disarm chain.
	fmt.Println("--- the kid disarms the alarm with the RF remote ---")
	pressAt := world.Clock.Now()
	home.PressRemote(false)
	if !world.Clock.RunUntil(func() bool { return parent.ReceiptCount() >= 1 }, time.Second, 2*time.Minute) {
		return fmt.Errorf("disarm alert never arrived")
	}
	r := parent.Receipts()[0]
	fmt.Printf("  parent's IM: %q after %v (paper: ~11 s)\n",
		r.Alert.Subject, r.At.Sub(pressAt).Round(time.Millisecond))

	// Scene 2: the garage-door sensor's battery dies; its soft-state
	// variable misses its refreshes and times out.
	fmt.Println("--- the garage door sensor's battery dies ---")
	if err := home.SetBattery("garage-door", false); err != nil {
		return err
	}
	deadAt := world.Clock.Now()
	if !world.Clock.RunUntil(func() bool { return parent.ReceiptCount() >= 2 }, 10*time.Second, 30*time.Minute) {
		return fmt.Errorf("sensor-broken alert never arrived")
	}
	r = parent.Receipts()[1]
	fmt.Printf("  parent's IM: %q after %v (refresh 30s × 4 missed)\n",
		r.Alert.Subject, r.At.Sub(deadAt).Round(time.Second))
	fmt.Printf("phoneline multicast: %d replication messages\n", home.Multicast().Sent())
	return nil
}
