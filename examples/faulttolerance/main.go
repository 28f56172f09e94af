// Command faulttolerance demonstrates MyAlertBuddy's availability
// machinery under fire: the IM client is logged out, hung, and shown
// modal dialogs; the buddy itself is crashed mid-alert and restarted
// by the Master Daemon Controller; and the pessimistic log replays the
// alert the crash would otherwise have lost. Every recovery action is
// journaled, exactly like the paper's one-month study.
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
	world, err := simba.NewWorld(simba.WorldOptions{Seed: 5})
	if err != nil {
		return err
	}
	if err := world.CreatePersonalAccounts("alice-im", []string{"alice@work.sim"}, ""); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "simba-ft")
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
	buddy.Classifier().Accept(simba.SourceRule{Source: "demo", Extract: simba.ExtractNative})
	buddy.Aggregator().Map("Critical", "Critical")
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
	if err := profile.DefineMode(simba.IMThenEmailMode("MSN IM", "Work email", simba.ModeDuration(10*time.Second))); err != nil {
		return err
	}
	if err := buddy.Store().Subscribe("Critical", "alice", "IMThenEmail"); err != nil {
		return err
	}

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

	// Supervise the buddy with the watchdog instead of starting it
	// directly.
	watchdog, err := simba.NewWatchdog(world, buddy)
	if err != nil {
		return err
	}
	watchdog.Start()
	defer watchdog.Stop()
	if !world.Clock.RunUntil(buddy.Running, time.Second, time.Minute) {
		return fmt.Errorf("buddy never started")
	}
	fmt.Println("buddy running under the Master Daemon Controller")

	link, err := simba.NewSourceLink(world, "demo-src", "demo@sim", buddy, 15*time.Second)
	if err != nil {
		return err
	}
	if err := link.Start(); err != nil {
		return err
	}
	defer link.Stop()
	send := func(subject string) error {
		a := &simba.Alert{
			ID: simba.NextAlertID("ft"), Source: "demo", Keywords: []string{"Critical"},
			Subject: subject, Urgency: simba.UrgencyCritical, Created: world.Clock.Now(),
		}
		return world.Clock.Drive(func() { _, _ = link.Deliver(a) }, 500*time.Millisecond)
	}

	// Fault 1: the IM service logs the buddy's client out; the
	// 1-minute sanity check re-logs it in.
	fmt.Println("--- fault 1: spontaneous IM logout ---")
	world.IM.ForceLogout(buddy.IMHandle())
	world.Clock.RunFor(90*time.Second, 5*time.Second)
	if err := send("alert after logout"); err != nil {
		return err
	}
	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() >= 1 }, time.Second, 2*time.Minute) {
		return fmt.Errorf("alert after logout never arrived")
	}
	fmt.Println("  re-login healed it; alert delivered")

	// Fault 2: the IM client hangs; the sanity check's call timeout
	// detects it and the Shutdown/Restart API replaces the client.
	fmt.Println("--- fault 2: hanging IM client ---")
	buddy.InjectIMClientHang()
	world.Clock.RunFor(2*time.Minute, 5*time.Second)
	if err := send("alert after client hang"); err != nil {
		return err
	}
	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() >= 2 }, time.Second, 2*time.Minute) {
		return fmt.Errorf("alert after hang never arrived")
	}
	fmt.Println("  client killed and relaunched; alert delivered")

	// Fault 3: the buddy itself crashes right after acknowledging an
	// alert. The MDC restarts it; the pessimistic log replays the
	// unprocessed alert.
	fmt.Println("--- fault 3: buddy crash between ack and routing ---")
	if err := send("alert lost without the log?"); err != nil {
		return err
	}
	buddy.InjectCrash()
	if !world.Clock.RunUntil(buddy.Running, 5*time.Second, 5*time.Minute) {
		return fmt.Errorf("MDC never restarted the buddy")
	}
	if !world.Clock.RunUntil(func() bool { return user.ReceiptCount() >= 3 }, time.Second, 5*time.Minute) {
		return fmt.Errorf("replayed alert never arrived")
	}
	fmt.Println("  MDC restarted the buddy; the log replayed the alert")

	fmt.Printf("\nwatchdog restarts: %d, user duplicates discarded: %d\n",
		watchdog.Restarts(), user.Duplicates())
	fmt.Println("recovery journal:")
	for _, e := range world.Journal.Entries() {
		fmt.Printf("  %s\n", e)
	}
	return nil
}
