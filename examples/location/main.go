// Command location replays the paper's WISH scenario: a colleague's
// laptop periodically reports RF signal strengths; the WISH server
// localizes it against a propagation model and alerts a subscriber
// over SIMBA whenever the colleague changes zones — about 5 seconds
// from wireless send to the subscriber's IM.
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
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 4})
	if err != nil {
		return err
	}
	if err := world.CreatePersonalAccounts("paramvir-im", []string{"paramvir@msr.sim"}, ""); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "simba-location")
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
	buddy.Classifier().Accept(simba.SourceRule{Source: "wish", Extract: simba.ExtractNative})
	buddy.Aggregator().Map("Location", "People")
	profile, err := buddy.Store().RegisterUser("paramvir")
	if err != nil {
		return err
	}
	for _, a := range []simba.Address{
		{Type: simba.TypeIM, Name: "MSN IM", Target: "paramvir-im", Enabled: true},
		{Type: simba.TypeEmail, Name: "Work email", Target: "paramvir@msr.sim", Enabled: true},
	} {
		if err := profile.Addresses().Register(a); err != nil {
			return err
		}
	}
	if err := profile.DefineMode(simba.IMThenEmailMode("MSN IM", "Work email", simba.ModeDuration(10*time.Second))); err != nil {
		return err
	}
	if err := buddy.Store().Subscribe("People", "paramvir", "IMThenEmail"); err != nil {
		return err
	}

	subscriber, err := simba.NewUser(world, simba.UserOptions{
		Name: "paramvir", IMHandle: "paramvir-im", EmailAddresses: []string{"paramvir@msr.sim"},
	})
	if err != nil {
		return err
	}
	if err := subscriber.Start(); err != nil {
		return err
	}
	defer subscriber.Stop()
	if err := simba.StartBuddy(world, buddy); err != nil {
		return err
	}
	defer buddy.Kill()

	link, err := simba.NewSourceLink(world, "wish-server", "wish@msr.sim", buddy, 15*time.Second)
	if err != nil {
		return err
	}
	if err := link.Start(); err != nil {
		return err
	}
	defer link.Stop()

	// The building: four APs, two wings.
	server, err := simba.NewWISHServer(world, link, simba.WISHOptions{
		APs: []simba.AccessPoint{
			simba.WISHAP("ap-1", 0, 0), simba.WISHAP("ap-2", 40, 0),
			simba.WISHAP("ap-3", 0, 30), simba.WISHAP("ap-4", 40, 30),
		},
		Zones: []simba.Zone{
			simba.WISHZone("west-wing", 0, 0, 20, 30),
			simba.WISHZone("east-wing", 20, 0, 40, 30),
		},
	})
	if err != nil {
		return err
	}
	server.Track("yimin", "paramvir")

	client, err := simba.NewWISHClient(world, server, "yimin", 2*time.Second)
	if err != nil {
		return err
	}
	client.MoveTo(10, 15) // west wing office
	client.Start()
	defer client.Stop()
	world.Clock.RunFor(10*time.Second, time.Second) // establish the starting zone

	walk := []struct {
		desc string
		x, y float64
	}{
		{"walks to the east wing lab", 30, 15},
		{"steps outside the building", 120, 120},
		{"returns to the west wing", 10, 15},
	}
	for i, leg := range walk {
		before := subscriber.ReceiptCount()
		moveAt := world.Clock.Now()
		client.MoveTo(leg.x, leg.y)
		if !world.Clock.RunUntil(func() bool { return subscriber.ReceiptCount() > before }, time.Second, 2*time.Minute) {
			return fmt.Errorf("leg %d: no alert", i)
		}
		receipts := subscriber.Receipts()
		r := receipts[len(receipts)-1]
		fmt.Printf("yimin %-32s → IM %q after %v\n",
			leg.desc, r.Alert.Subject, r.At.Sub(moveAt).Round(time.Millisecond))
	}
	if v, err := server.Store().Read("wish/user/yimin"); err == nil {
		fmt.Printf("soft-state position record: %s\n", v)
	}
	return nil
}
