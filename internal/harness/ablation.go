package harness

import (
	"fmt"
	"path/filepath"
	"time"

	"simba/internal/commgr"
	"simba/internal/mab"
	"simba/internal/metrics"
)

// AblationNoPlog quantifies what pessimistic logging buys: the buddy
// is crashed right after acknowledging each alert (the window the log
// protects), then restarted. With replay the alert still reaches the
// user; without it the alert is lost even though the source saw an
// acknowledgement and will never resend.
func AblationNoPlog(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 15
	}
	run := func(disableReplay bool, dir string) (delivered int, err error) {
		// A 5s routing delay makes the ack→route window deterministic:
		// the crash always lands while the alert is logged but not yet
		// routed.
		tb, err := NewTestbed(Options{TempDir: dir, DisableReplay: disableReplay, RouteDelay: 5 * time.Second})
		if err != nil {
			return 0, err
		}
		if err := tb.Start(); err != nil {
			return 0, err
		}
		defer tb.Stop()
		for i := 0; i < n; i++ {
			before := tb.User.ReceiptCount()
			a := benchAlert(tb)
			if _, err := deliverDriven(tb, a); err != nil {
				return 0, fmt.Errorf("alert %d: %w", i, err)
			}
			// Crash in the ack→route window.
			tb.Buddy.InjectCrash()
			tb.Sim.RunUntil(func() bool { return !tb.Buddy.Running() }, 100*time.Millisecond, 10*time.Second)
			var serr error
			if err := tb.Sim.Drive(func() { serr = tb.Buddy.Start() }, time.Second); err != nil {
				return 0, fmt.Errorf("restart %d: %w", i, err)
			}
			if serr != nil {
				return 0, serr
			}
			if tb.Sim.RunUntil(func() bool { return tb.User.ReceiptCount() > before }, time.Second, 2*time.Minute) {
				delivered++
			}
		}
		return delivered, nil
	}
	withLog, err := run(false, filepath.Join(tempDir, "with-plog"))
	if err != nil {
		return nil, fmt.Errorf("ablation with plog: %w", err)
	}
	withoutLog, err := run(true, filepath.Join(tempDir, "without-plog"))
	if err != nil {
		return nil, fmt.Errorf("ablation without plog: %w", err)
	}
	res := &Result{ID: "A1", Title: "Ablation: pessimistic logging (crash after ack, before routing)"}
	res.AddRow("with log-before-ack + replay", "no alert loss",
		fmt.Sprintf("%d/%d delivered", withLog, n), "")
	res.AddRow("without replay (ablated)", "acked alerts lost",
		fmt.Sprintf("%d/%d delivered", withoutLog, n), "")
	res.AddNote("the crash lands between the acknowledgement and routing; the sender never resends an acked alert")
	return res, nil
}

// AblationNoMonkey measures the dialog-box-handling API's value: how
// long a known modal dialog keeps the IM client wedged, with the
// monkey thread sweeping every 20s versus disabled (recovery then
// waits for the sanity check to declare the client hung and restart
// it).
func AblationNoMonkey(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 8
	}
	run := func(dialogPeriod time.Duration, dir string) (*metrics.Summary, int, error) {
		tb, err := NewTestbed(Options{TempDir: dir, DialogPeriod: dialogPeriod})
		if err != nil {
			return nil, 0, err
		}
		if err := tb.Start(); err != nil {
			return nil, 0, err
		}
		defer tb.Stop()
		var rec metrics.Recorder
		pairs := commgr.IMClientPairs()
		for i := 0; i < n; i++ {
			// Pop a dialog the dismissal table knows, owned by the
			// buddy's current IM client.
			app := tb.currentIMApp()
			if app == nil {
				return nil, 0, fmt.Errorf("no live IM client before dialog %d", i)
			}
			popAt := tb.Sim.Now()
			tb.Machine.Desktop().PopDialog(pairs[0].Caption, []string{pairs[0].Button}, app.Proc, popAt)
			// Recovered when an alert flows over IM again.
			recovered := false
			for attempt := 0; attempt < 40; attempt++ {
				if probeIMDelivery(tb) {
					recovered = true
					break
				}
			}
			if !recovered {
				return nil, 0, fmt.Errorf("dialog %d never recovered", i)
			}
			rec.Observe(tb.Sim.Now().Sub(popAt))
			tb.Sim.RunFor(time.Minute, 5*time.Second)
		}
		s := rec.Summarize()
		return &s, tb.Journal.Count("client-restart"), nil
	}
	with, withRestarts, err := run(0, filepath.Join(tempDir, "with-monkey")) // default 20s sweep
	if err != nil {
		return nil, fmt.Errorf("with monkey: %w", err)
	}
	without, withoutRestarts, err := run(12*time.Hour, filepath.Join(tempDir, "without-monkey"))
	if err != nil {
		return nil, fmt.Errorf("without monkey: %w", err)
	}
	res := &Result{ID: "A2", Title: "Ablation: monkey-thread dialog handling"}
	res.AddRow("recovery with 20s monkey sweep", "≤ 20 s, no restart",
		fmt.Sprintf("mean %s, %d client restarts", fmtDur(with.Mean), withRestarts), "")
	res.AddRow("recovery with monkey disabled", "sanity-timeout + client restart",
		fmt.Sprintf("mean %s, %d client restarts", fmtDur(without.Mean), withoutRestarts), "")
	res.AddNote("%d modal dialogs per arm; recovery = dialog pop → next successful IM delivery to the buddy", n)
	return res, nil
}

// AblationProbePeriod sweeps the MDC's AreYouWorking period and
// measures hang-detection latency — the trade the paper settled at 3
// minutes.
func AblationProbePeriod(tempDir string, periods []time.Duration) (*Result, error) {
	if len(periods) == 0 {
		periods = []time.Duration{time.Minute, 3 * time.Minute, 10 * time.Minute}
	}
	res := &Result{ID: "A3", Title: "Ablation: MDC AreYouWorking probe period"}
	for i, period := range periods {
		tb, err := NewTestbed(Options{
			TempDir:     filepath.Join(tempDir, fmt.Sprintf("probe-%d", i)),
			StartMDC:    true,
			ProbePeriod: period,
		})
		if err != nil {
			return nil, err
		}
		if err := tb.Start(); err != nil {
			return nil, err
		}
		var rec metrics.Recorder
		const hangs = 4
		for h := 0; h < hangs; h++ {
			tb.Sim.RunFor(2*time.Minute, 30*time.Second)
			hangAt := tb.Sim.Now()
			baseRestarts := tb.MDC.Restarts()
			tb.Buddy.InjectHang()
			// Detection: heartbeats go stale (HeartbeatMaxAge), then the
			// next probe fails and the MDC kills and restarts the buddy.
			if !tb.Sim.RunUntil(func() bool { return tb.MDC.Restarts() > baseRestarts }, 30*time.Second, 4*time.Hour) {
				tb.Stop()
				return nil, fmt.Errorf("probe period %v: hang %d never detected", period, h)
			}
			// Recovery: restarted and answering probes again.
			ok := tb.Sim.RunUntil(func() bool {
				return tb.Buddy.Running() && tb.Buddy.AreYouWorking()
			}, 30*time.Second, time.Hour)
			if !ok {
				tb.Stop()
				return nil, fmt.Errorf("probe period %v: hang %d never recovered", period, h)
			}
			rec.Observe(tb.Sim.Now().Sub(hangAt))
		}
		s := rec.Summarize()
		paper := "—"
		if period == 3*time.Minute {
			paper = "the paper's operating point"
		}
		res.AddRow(fmt.Sprintf("probe every %s", period), paper,
			fmt.Sprintf("hang → healthy restart: mean %s", fmtDur(s.Mean)), "")
		tb.Stop()
	}
	res.AddNote("hang detection cannot beat heartbeat staleness (the buddy advertises progress up to %s old) plus one probe period", fmtDur(mab.DefaultHeartbeatMaxAge))
	return res, nil
}

// probeIMDelivery attempts one delivery to the buddy while driving the
// clock, reporting whether it succeeded over IM.
func probeIMDelivery(tb *Testbed) bool {
	var ok bool
	err := tb.Sim.Drive(func() {
		rep, err := tb.Target.Deliver(benchAlert(tb))
		ok = err == nil && rep.DeliveredVia == "Buddy IM"
	}, time.Second)
	return err == nil && ok
}
