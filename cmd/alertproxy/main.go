// Command alertproxy demonstrates the standalone SIMBA alert proxy of
// Section 2.1 against a simulated web: it watches the Florida-recount
// block on a news page and the PlayStation2 availability block on a
// store page, printing an alert every time either block changes —
// including through a site outage.
//
// Usage:
//
//	alertproxy [-minutes N]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/email"
	"simba/internal/proxy"
	"simba/internal/websim"
)

func main() {
	minutes := flag.Int("minutes", 10, "virtual minutes to run")
	flag.Parse()
	if err := run(*minutes); err != nil {
		log.Fatal(err)
	}
}

func run(minutes int) error {
	sim := clock.NewSim(time.Time{})
	web, err := websim.New(sim, 200*time.Millisecond)
	if err != nil {
		return err
	}
	// Deliveries land in a collector mailbox (standing in for the
	// buddy) so this demo stays self-contained.
	emSvc, err := email.NewService(email.Config{
		Clock: sim, RNG: dist.NewRNG(1), Delay: dist.Fixed(time.Second),
	})
	if err != nil {
		return err
	}
	inbox, err := emSvc.CreateMailbox("collector@sim")
	if err != nil {
		return err
	}
	sender, err := core.NewDirectEmail(emSvc, "proxy@sim")
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(sim, nil, sender)
	if err != nil {
		return err
	}
	reg := addr.NewRegistry("collector")
	if err := reg.Register(addr.Address{Type: addr.TypeEmail, Name: "inbox", Target: "collector@sim", Enabled: true}); err != nil {
		return err
	}
	mode := &dmode.Mode{Name: "email", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "inbox"}}}}}
	target, err := core.NewTarget(engine, reg, mode)
	if err != nil {
		return err
	}

	cnn, err := web.CreateSite("cnn")
	if err != nil {
		return err
	}
	cnn.SetContent("election", "Results so far: [Gore 2909135, Bush 2909142] updated hourly", sim.Now())
	store, err := web.CreateSite("store")
	if err != nil {
		return err
	}
	store.SetContent("ps2", "PlayStation2: <stock>SOLD OUT</stock>", sim.Now())

	p, err := proxy.New(sim, web, target)
	if err != nil {
		return err
	}
	for _, m := range []proxy.Monitor{
		{Name: "florida-recount", URL: "cnn/election", PollEvery: time.Second,
			StartKeyword: "[", EndKeyword: "]", Source: "alert-proxy",
			Keywords: []string{"Election"}, Urgency: alert.UrgencyHigh},
		{Name: "ps2-availability", URL: "store/ps2", PollEvery: 5 * time.Second,
			StartKeyword: "<stock>", EndKeyword: "</stock>", Source: "alert-proxy",
			Keywords: []string{"PlayStation2"}},
	} {
		if err := p.AddMonitor(m); err != nil {
			return err
		}
	}
	p.Start()
	defer p.Stop()

	total := time.Duration(minutes) * time.Minute
	at := func(frac float64) time.Duration { return time.Duration(frac * float64(total)) }
	cnn.ScheduleUpdate(sim, at(0.2), "election", "Results so far: [Gore 2909135, Bush 2909537] updated hourly")
	store.ScheduleUpdate(sim, at(0.4), "ps2", "PlayStation2: <stock>IN STOCK - 12 units</stock>")
	sim.AfterFunc(at(0.55), func() {
		fmt.Printf("%s  cnn goes unreachable\n", sim.Now().Format("15:04:05"))
		cnn.Down().Set(true, sim.Now())
	})
	cnn.ScheduleUpdate(sim, at(0.6), "election", "Results so far: [Gore 2909135, Bush 2910212] updated hourly")
	sim.AfterFunc(at(0.75), func() {
		fmt.Printf("%s  cnn back online\n", sim.Now().Format("15:04:05"))
		cnn.Down().Set(false, sim.Now())
	})

	seen := 0
	for elapsed := time.Duration(0); elapsed < total; elapsed += time.Second {
		sim.Advance(time.Second)
		for _, msg := range inbox.Fetch() {
			var a alert.Alert
			if err := a.UnmarshalText([]byte(msg.Body)); err != nil {
				continue
			}
			seen++
			fmt.Printf("%s  ALERT %-18s %q\n",
				sim.Now().Format("15:04:05"), a.Keywords[0], a.Body)
		}
	}
	fmt.Printf("%d change alerts over %d virtual minutes\n", seen, minutes)
	return nil
}
