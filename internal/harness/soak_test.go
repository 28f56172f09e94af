package harness

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/dist"
	"simba/internal/faults"
)

func TestSoakRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	for _, seed := range []int64{3, 17} {
		res, err := soakRandomFaults(t.TempDir(), seed, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Log(res)
		if !res.Recovered {
			t.Fatalf("seed %d: buddy did not recover: %s", seed, res)
		}
		if res.AlertsSent > 0 && res.AlertsDelivered == 0 {
			t.Fatalf("seed %d: nothing delivered: %s", seed, res)
		}
	}
}

// soakResult summarizes a randomized fault soak.
type soakResult struct {
	Seed            int64
	Days            int
	FaultsInjected  int
	AlertsSent      int64
	AlertsDelivered int
	MDCRestarts     int
	Recovered       bool // buddy healthy at the end
}

// soakRandomFaults runs the full testbed under a *randomized* fault
// timeline (as opposed to E5's scripted one): IM outages, forced
// logouts, client hangs, buddy crashes and buddy hangs arrive as
// Poisson processes, with background alert traffic throughout. It
// checks the property the paper's mechanisms promise: whatever the
// interleaving, the system returns to health and keeps delivering.
func soakRandomFaults(tempDir string, seed int64, days int) (*soakResult, error) {
	if days <= 0 {
		days = 3
	}
	horizon := time.Duration(days) * 24 * time.Hour
	tb, err := NewTestbed(Options{TempDir: tempDir, Seed: seed, StartMDC: true})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	rng := dist.NewRNG(seed + 100)
	perDay := func(n float64) float64 { return n * float64(days) }
	events := faults.RandomEvents(rng, horizon, map[string]float64{
		"im-outage":     perDay(0.3),
		"forced-logout": perDay(0.5),
		"client-hang":   perDay(0.4),
		"buddy-crash":   perDay(1.2),
		"buddy-hang":    perDay(0.2),
	})
	sched := faults.NewSchedule()
	for _, ev := range events {
		ev := ev
		switch ev.Kind {
		case "im-outage":
			duration := time.Duration(5+rng.Intn(40)) * time.Minute
			sched.At(ev.At, func() {
				tb.IMSvc.Outage().Set(true, tb.Sim.Now())
				tb.IMSvc.ForceLogoutAll()
			})
			sched.At(ev.At+duration, func() {
				tb.IMSvc.Outage().Set(false, tb.Sim.Now())
			})
		case "forced-logout":
			sched.At(ev.At, func() { tb.IMSvc.ForceLogout(BuddyIMHandle) })
		case "client-hang":
			sched.At(ev.At, func() { tb.Buddy.InjectIMClientHang() })
		case "buddy-crash":
			sched.At(ev.At, func() { tb.Buddy.InjectCrash() })
		case "buddy-hang":
			sched.At(ev.At, func() { tb.Buddy.InjectHang() })
		}
	}
	sched.Install(tb.Sim)

	var sent atomic.Int64
	trafficStop := make(chan struct{})
	go func() {
		ticker := tb.Sim.NewTicker(time.Hour)
		defer ticker.Stop()
		for {
			select {
			case <-trafficStop:
				return
			case <-ticker.C():
				a := benchAlert(tb)
				sent.Add(1)
				go func() { _, _ = tb.Target.Deliver(a) }()
			}
		}
	}()

	tb.Sim.RunFor(horizon, time.Minute)
	close(trafficStop)
	// Quiesce: let any ongoing recovery finish and stragglers deliver.
	tb.Sim.RunFor(30*time.Minute, time.Minute)

	recovered := tb.Sim.RunUntil(func() bool {
		return tb.Buddy.Running() && tb.Buddy.AreYouWorking()
	}, time.Minute, 2*time.Hour)

	res := &soakResult{
		Seed:            seed,
		Days:            days,
		FaultsInjected:  len(events),
		AlertsSent:      sent.Load(),
		AlertsDelivered: tb.User.ReceiptCount(),
		MDCRestarts:     tb.MDC.Restarts(),
		Recovered:       recovered,
	}
	return res, nil
}

// String renders the soak summary.
func (r *soakResult) String() string {
	return fmt.Sprintf("seed=%d days=%d faults=%d restarts=%d delivered=%d/%d recovered=%v",
		r.Seed, r.Days, r.FaultsInjected, r.MDCRestarts, r.AlertsDelivered, r.AlertsSent, r.Recovered)
}
