package harness

import (
	"fmt"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/metrics"
)

// A4AckTimeoutSweep quantifies the delivery-mode design trade the
// paper leaves to the user: the IM block's acknowledgement timeout.
// A user who is away half the time receives alerts under modes whose
// first block waits 2 s / 5 s / 15 s / 30 s for an ack before falling
// back to email. Short timeouts give snappy fallback but give up on
// reachable-but-slow users; long timeouts squeeze more deliveries onto
// the timely IM channel at the cost of slow fallbacks. This is the
// quantitative face of Section 3's "personalized dependability
// levels".
func A4AckTimeoutSweep(tempDir string, perCell int, timeouts []time.Duration) (*Result, error) {
	if perCell <= 0 {
		perCell = 40
	}
	if len(timeouts) == 0 {
		timeouts = []time.Duration{2 * time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second}
	}
	tb, err := NewTestbed(Options{TempDir: tempDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	reg := addr.NewRegistry(UserName)
	for _, a := range []addr.Address{
		{Type: addr.TypeIM, Name: "MSN IM", Target: UserIMHandle, Enabled: true},
		{Type: addr.TypeEmail, Name: "Work email", Target: UserEmailAddr, Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			return nil, err
		}
	}
	// The user flips between desk and away every few alerts,
	// deterministically from the seed.
	rng := dist.NewRNG(tb.Opts.Seed + 50)

	res := &Result{ID: "A4", Title: "Delivery-mode ack-timeout sweep (the §3 dependability/irritation dial)"}
	for ti, timeout := range timeouts {
		mode := &dmode.Mode{Name: fmt.Sprintf("sweep-%d", ti), Blocks: []dmode.Block{
			{Timeout: dmode.Duration(timeout), Actions: []dmode.Action{{Address: "MSN IM"}}},
			{Actions: []dmode.Action{{Address: "Work email"}}},
		}}
		var lat metrics.Recorder
		viaIM := 0
		delivered := 0
		for i := 0; i < perCell; i++ {
			tb.User.SetPresent(rng.Bool(0.5))
			a := &alert.Alert{
				ID:      fmt.Sprintf("a4-%d-%d", ti, i),
				Source:  "bench",
				Subject: "sweep alert",
				Urgency: alert.UrgencyHigh,
				Created: tb.Sim.Now(),
			}
			var rep *core.Report
			var err error
			if derr := tb.Sim.Drive(func() { rep, err = tb.SrcEngine.Deliver(a, reg, mode) }, 250*time.Millisecond); derr != nil {
				return nil, fmt.Errorf("A4 cell %d alert %d: %w", ti, i, derr)
			}
			if err == nil && rep.Delivered {
				delivered++
				lat.Observe(rep.Latency())
				if rep.DeliveredVia == "MSN IM" {
					viaIM++
				}
			}
			tb.Sim.RunFor(3*time.Second, time.Second)
		}
		s := lat.Summarize()
		row := fmt.Sprintf("%d/%d confirmed, %d%% via IM, mean confirm %s, p90 %s",
			delivered, perCell, 100*viaIM/max(delivered, 1), fmtDur(s.Mean), fmtDur(s.P90))
		res.AddRow(fmt.Sprintf("ack timeout %s", timeout), "user at desk 50% of the time", row, "")
	}
	res.AddNote("%d alerts per cell; 'confirmed' = the source saw an IM ack or an accepted email fallback", perCell)
	res.AddNote("shape: IM share is flat (≈presence probability) once the timeout clears the ~1s ack RTT; mean confirm time grows with the timeout because every away-alert pays the full wait before falling back")
	return res, nil
}
