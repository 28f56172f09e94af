package harness

import (
	"fmt"
	"sync/atomic"
	"time"

	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/faults"
)

// monthPlan is the fault schedule for E5, expressed as fractions of
// the run so shorter runs compress the same event set. The injected
// counts are calibrated to Section 5's one-month log: five extended IM
// downtimes of 4–103 minutes, spontaneous logouts healed by re-login,
// hanging IM clients killed and restarted, 36 MDC restarts of
// MyAlertBuddy (mostly "IM exceptions" → crashes here), one power
// outage and two previously unknown dialog boxes (the three failures
// the mechanisms could not recover).
type monthPlan struct {
	imOutages []struct {
		frac     float64
		duration time.Duration
	}
	logoutFracs []float64 // spontaneous IM logouts (simple re-login works)
	hangFracs   []float64 // hanging IM client (kill+restart needed)
	crashFracs  []float64 // MAB crashes from unhandled exceptions
	mabHangs    []float64 // MAB internal hangs (probe failures)
	powerFrac   float64
	powerFor    time.Duration
	dialogFracs []float64
	dialogFor   time.Duration
	// knownDialogFracs pop dialogs whose caption-button pairs the
	// monkey thread already knows; it dismisses them within a sweep.
	knownDialogFracs []float64
}

func defaultMonthPlan() monthPlan {
	p := monthPlan{
		imOutages: []struct {
			frac     float64
			duration time.Duration
		}{
			{0.07, 4 * time.Minute},
			{0.23, 11 * time.Minute},
			{0.44, 27 * time.Minute},
			{0.63, 55 * time.Minute},
			{0.87, 103 * time.Minute},
		},
		logoutFracs:      []float64{0.05, 0.31, 0.52, 0.74},
		hangFracs:        []float64{0.11, 0.27, 0.38, 0.49, 0.61, 0.79, 0.93},
		powerFrac:        0.76,
		powerFor:         15 * time.Minute,
		dialogFracs:      []float64{0.34, 0.57},
		dialogFor:        150 * time.Second,
		knownDialogFracs: []float64{0.09, 0.21, 0.42, 0.58, 0.69, 0.83},
	}
	// 27 crashes + 4 MAB hangs, plus the rejuvenations the two
	// unknown-dialog windows force and the power-outage recovery,
	// land near the paper's 36 MDC restarts.
	for i := 0; i < 27; i++ {
		p.crashFracs = append(p.crashFracs, 0.015+float64(i)*0.036)
	}
	p.mabHangs = []float64{0.18, 0.36, 0.55, 0.9}
	return p
}

// E5FaultMonth replays the paper's one-month availability study in
// virtual time. days may be shortened for quick runs; the same fault
// set is compressed into the window.
func E5FaultMonth(tempDir string, days int) (*Result, error) {
	res, _, err := faultMonth(tempDir, days)
	return res, err
}

// faultMonth is E5FaultMonth, returning the run's fault journal too.
func faultMonth(tempDir string, days int) (*Result, []faults.Entry, error) {
	if days <= 0 {
		days = 30
	}
	duration := time.Duration(days) * 24 * time.Hour
	tb, err := NewTestbed(Options{TempDir: tempDir, StartMDC: true})
	if err != nil {
		return nil, nil, err
	}
	// Dialog faults re-pop on every relaunched IM client instance while
	// a dialog window is active.
	var dialogCaption atomic.Value // string; "" when inactive
	dialogCaption.Store("")
	tb.OnIMLaunch = func(app *automation.IMClientApp) {
		if caption := dialogCaption.Load().(string); caption != "" {
			tb.Machine.Desktop().PopDialog(caption, []string{"OK"}, app.Proc, tb.Clock.Now())
		}
	}
	if err := tb.Start(); err != nil {
		return nil, nil, err
	}
	defer tb.Stop()

	plan := defaultMonthPlan()
	at := func(frac float64) time.Duration { return time.Duration(frac * float64(duration)) }
	sched := faults.NewSchedule()

	// IM service outages (with forced logouts at outage start, as a
	// server recovery would cause).
	for _, o := range plan.imOutages {
		o := o
		sched.At(at(o.frac), func() {
			tb.Journal.Record(tb.Clock.Now(), faults.KindFaultInjected, "im-service outage")
			tb.IM.Outage().Set(true, tb.Clock.Now())
			tb.IM.ForceLogoutAll()
		})
		sched.At(at(o.frac)+o.duration, func() {
			tb.IM.Outage().Set(false, tb.Clock.Now())
			tb.Journal.Record(tb.Clock.Now(), faults.KindFaultCleared, "im-service outage")
		})
	}
	for _, f := range plan.logoutFracs {
		sched.At(at(f), func() { tb.IM.ForceLogout(BuddyIMHandle) })
	}
	for _, f := range plan.hangFracs {
		sched.At(at(f), func() { tb.Buddy.InjectIMClientHang() })
	}
	for _, f := range plan.crashFracs {
		sched.At(at(f), func() { tb.Buddy.InjectCrash() })
	}
	for _, f := range plan.mabHangs {
		sched.At(at(f), func() { tb.Buddy.InjectHang() })
	}
	// Power outage: everything dies; no UPS, so this one is
	// unrecoverable until power returns.
	sched.At(at(plan.powerFrac), func() {
		tb.Journal.Record(tb.Clock.Now(), faults.KindUnrecovered, "power outage in the office (no UPS)")
		tb.Machine.PowerOff()
	})
	sched.At(at(plan.powerFrac)+plan.powerFor, func() { tb.Machine.PowerOn() })
	// Known dialogs: the monkey thread handles these routinely.
	for _, f := range plan.knownDialogFracs {
		sched.At(at(f), func() {
			app := tb.currentIMApp()
			if app == nil || !app.Running() {
				return
			}
			tb.Machine.Desktop().PopDialog("Connection Error", []string{"OK"}, app.Proc, tb.Clock.Now())
		})
	}
	// Two previously unknown dialog boxes: while the window is open,
	// every (re)launched IM client pops the dialog again, so the
	// restart loop cannot restore health; the window closes when the
	// caption-button pair is registered (the paper's eventual fix).
	for i, f := range plan.dialogFracs {
		caption := fmt.Sprintf("Unexpected Error %d", i+1)
		sched.At(at(f), func() {
			tb.Journal.Recordf(tb.Clock.Now(), faults.KindUnrecovered, "previously unknown dialog box %q", caption)
			dialogCaption.Store(caption)
			if app := tb.currentIMApp(); app != nil && app.Running() {
				tb.Machine.Desktop().PopDialog(caption, []string{"OK"}, app.Proc, tb.Clock.Now())
			}
		})
		sched.At(at(f)+plan.dialogFor, func() {
			dialogCaption.Store("")
			// The operator registers the pair; clear any open instance.
			for tb.Machine.Desktop().ClickButton(caption, "OK") {
			}
		})
	}
	sched.Install(tb.Clock)

	// Background alert traffic: one alert every 2 hours.
	trafficPeriod := 2 * time.Hour
	var sent atomic.Int64
	stopTraffic := tb.traffic(trafficPeriod, &sent)

	// Run the month.
	tb.Clock.RunFor(duration, time.Minute)
	stopTraffic()
	tb.Clock.RunFor(10*time.Minute, time.Minute) // drain in-flight deliveries

	downtimes := tb.Journal.Downtimes("im-service outage")
	minD, maxD := time.Duration(0), time.Duration(0)
	if len(downtimes) > 0 {
		minD, maxD = downtimes[0], downtimes[0]
		for _, d := range downtimes {
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	res := &Result{ID: "E5", Title: fmt.Sprintf("Fault-tolerance log over %d simulated days (Section 5)", days)}
	res.AddRow("extended IM downtimes", "5 (4–103 min)",
		fmt.Sprintf("%d (%s–%s)", len(downtimes), fmtDur(minD), fmtDur(maxD)), "")
	res.AddRow("logged out, re-login worked", "9",
		fmt.Sprintf("%d", tb.Journal.Count(faults.KindRelogin)), "includes post-outage re-logins")
	res.AddRow("hanging IM client killed+restarted", "9",
		fmt.Sprintf("%d", tb.Journal.Count(faults.KindClientRestart)), "includes dialog-window restart loops")
	res.AddRow("MyAlertBuddy restarts by MDC", "36",
		fmt.Sprintf("%d", tb.MDC.Restarts()), "mostly injected IM exceptions")
	res.AddRow("failures not auto-recovered", "3 (1 power, 2 dialogs)",
		fmt.Sprintf("%d", tb.Journal.Count(faults.KindUnrecovered)), "")
	res.AddRow("dialog boxes dismissed by monkey", "—",
		fmt.Sprintf("%d", tb.Journal.Count(faults.KindDialogDismissed)), "")
	res.AddRow("alert traffic delivered",
		"all except during the 3 unrecovered failures",
		fmt.Sprintf("%d/%d reached the user", tb.User.ReceiptCount(), sent.Load()), "")
	res.AddNote("fault schedule compressed from the paper's month into %d day(s); counts are injections plus organic recoveries", days)
	return res, tb.Journal.Entries(), nil
}

// traffic sends a benchAlert through the source every period, counting
// it in sent, until the returned stop is called.
func (tb *Testbed) traffic(period time.Duration, sent *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	tb.Clock.Go(func() {
		ticker := tb.Clock.NewTicker(period)
		defer ticker.Stop()
		for {
			clock.Wait(tb.Clock, done, ticker.C())
			select {
			case <-done:
				return
			case <-ticker.C():
				a := benchAlert(tb)
				sent.Add(1)
				tb.Clock.Go(func() { _, _ = tb.Src.Target.Deliver(a) })
			}
		}
	})
	return func() {
		close(done)
		clock.Notify(tb.Clock, done)
	}
}
