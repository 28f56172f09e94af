package harness

import (
	"fmt"
	"time"

	"simba/internal/alert"
	"simba/internal/core"
	"simba/internal/metrics"
	"simba/internal/proxy"
	"simba/internal/wish"
)

// benchAlert builds one experiment alert from the accepted "bench"
// source, categorized "Bench" (delivered with the Urgent mode).
func benchAlert(tb *Testbed) *alert.Alert {
	return &alert.Alert{
		ID:       alert.NextID("bench"),
		Source:   "bench",
		Keywords: []string{"Bench"},
		Subject:  "experiment alert",
		Body:     "generated by the SIMBA experiment harness",
		Urgency:  alert.UrgencyHigh,
		Created:  tb.Sim.Now(),
	}
}

// deliverDriven runs target.Deliver while driving the clock.
func deliverDriven(tb *Testbed, a *alert.Alert) (*core.Report, error) {
	var rep *core.Report
	var err error
	// A fine stride keeps virtual-time quantization error (one stride
	// per blocking handoff) well under the measured latencies.
	if derr := tb.Sim.Drive(func() { rep, err = tb.Target.Deliver(a) }, 100*time.Millisecond); derr != nil {
		return nil, fmt.Errorf("harness: delivery to buddy: %w", derr)
	}
	return rep, err
}

// E1IMDelivery reproduces Section 5's headline numbers: one-way IM
// delivery from an alert source to MyAlertBuddy typically under one
// second, and the acknowledgement (behind pessimistic logging) in
// about 1.5 seconds.
func E1IMDelivery(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 40
	}
	tb, err := NewTestbed(Options{TempDir: tempDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	var oneWay, ack metrics.Recorder
	for i := 0; i < n; i++ {
		a := benchAlert(tb)
		rep, err := deliverDriven(tb, a)
		if err != nil {
			return nil, fmt.Errorf("E1 alert %d: %w", i, err)
		}
		if rep.DeliveredVia != "Buddy IM" {
			return nil, fmt.Errorf("E1 alert %d fell back to %s", i, rep.DeliveredVia)
		}
		at, err := tb.WaitReceive(a.DedupKey(), 30*time.Second)
		if err != nil {
			return nil, err
		}
		oneWay.Observe(at.Sub(a.Created))
		ack.Observe(rep.Latency())
		tb.Sim.RunFor(2*time.Second, time.Second) // pace the alerts out
	}
	ows, acks := oneWay.Summarize(), ack.Summarize()
	res := &Result{ID: "E1", Title: "IM alert delivery to MyAlertBuddy (Section 5)"}
	res.AddRow("one-way IM delivery (mean)", "< 1 s", fmtDur(ows.Mean), "")
	res.AddRow("one-way IM delivery (p90)", "< 1 s", fmtDur(ows.P90), "")
	res.AddRow("ack with pessimistic logging (mean)", "≈ 1.5 s", fmtDur(acks.Mean), "")
	res.AddRow("ack with pessimistic logging (p90)", "≈ 1.5 s", fmtDur(acks.P90), "")
	res.AddNote("%d alerts; one-way = source timestamp → buddy receive; ack = source-side block confirmation", ows.Count)
	return res, nil
}

// E2ProxyRouting reproduces the alert-proxy scenario: the proxy
// detects a page change (the Florida recount / PlayStation2 monitors)
// and the alert routes through MyAlertBuddy to the user in about 2.5
// seconds.
func E2ProxyRouting(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 25
	}
	tb, err := NewTestbed(Options{TempDir: tempDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	site, err := tb.Web.CreateSite("cnn")
	if err != nil {
		return nil, err
	}
	site.SetContent("election", "Florida recount: [Gore 2909135, Bush 2909142]", tb.Sim.Now())
	if err := tb.Proxy.AddMonitor(proxy.Monitor{
		Name: "florida-recount", URL: "cnn/election", PollEvery: time.Second,
		StartKeyword: "[", EndKeyword: "]",
		Source: "alert-proxy", Keywords: []string{"Election"}, Urgency: alert.UrgencyHigh,
	}); err != nil {
		return nil, err
	}
	tb.Proxy.Start()
	tb.Sim.RunFor(5*time.Second, time.Second) // establish the baseline

	var detectToUser metrics.Recorder
	for i := 0; i < n; i++ {
		before := tb.User.ReceiptCount()
		site.SetContent("election", fmt.Sprintf("Florida recount: [Gore 2909135, Bush %d]", 2909142+i+1), tb.Sim.Now())
		ok := tb.Sim.RunUntil(func() bool { return tb.User.ReceiptCount() > before }, 250*time.Millisecond, 2*time.Minute)
		if !ok {
			return nil, fmt.Errorf("E2 change %d never reached the user", i)
		}
		receipts := tb.User.Receipts()
		detectToUser.Observe(receipts[len(receipts)-1].Latency)
	}
	s := detectToUser.Summarize()
	res := &Result{ID: "E2", Title: "Alert proxy → MyAlertBuddy → user (Section 5)"}
	res.AddRow("detection → user delivery (mean)", "≈ 2.5 s", fmtDur(s.Mean), "")
	res.AddRow("detection → user delivery (p90)", "≈ 2.5 s", fmtDur(s.P90), "")
	res.AddNote("%d page changes; latency from proxy detection timestamp to the user's IM receipt (ack sent)", s.Count)
	res.AddNote("poll period 1 s; change instants are uncorrelated with poll ticks, adding up to 1 s of detection delay not counted here")
	return res, nil
}

// E3Aladdin reproduces the disarm-the-alarm scenario: remote control →
// powerline → SSS → phoneline multicast → gateway → IM alert, 11
// seconds end to end on average.
func E3Aladdin(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 20
	}
	tb, err := NewTestbed(Options{TempDir: tempDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	var endToEnd metrics.Recorder
	arm := false
	for i := 0; i < n; i++ {
		before := tb.User.ReceiptCount()
		pressAt := tb.Sim.Now()
		tb.Home.PressRemote(arm)
		arm = !arm
		ok := tb.Sim.RunUntil(func() bool { return tb.User.ReceiptCount() > before }, 500*time.Millisecond, 3*time.Minute)
		if !ok {
			return nil, fmt.Errorf("E3 press %d never reached the user", i)
		}
		receipts := tb.User.Receipts()
		endToEnd.Observe(receipts[len(receipts)-1].At.Sub(pressAt))
	}
	s := endToEnd.Summarize()
	res := &Result{ID: "E3", Title: "Aladdin home alert end-to-end (Section 5 disarm scenario)"}
	res.AddRow("remote press → user IM (mean)", "≈ 11 s", fmtDur(s.Mean), "")
	res.AddRow("remote press → user IM (p90)", "≈ 11 s", fmtDur(s.P90), "")
	res.AddNote("%d presses; chain: RF remote → powerline transceiver → monitor PC → SSS write → phoneline multicast → gateway SSS event → home server → IM alert → buddy → user", s.Count)
	return res, nil
}

// E4WISH reproduces the wireless location scenario: laptop beacon →
// WISH server localization → SSS → alert service → subscriber IM, 5
// seconds on average.
func E4WISH(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 20
	}
	tb, err := NewTestbed(Options{TempDir: tempDir})
	if err != nil {
		return nil, err
	}
	if err := tb.Start(); err != nil {
		return nil, err
	}
	defer tb.Stop()

	tb.Wish.Track("yimin", UserName)
	client, err := wish.NewClient(tb.Sim, tb.RNG, tb.Wish, "yimin", 2*time.Second)
	if err != nil {
		return nil, err
	}
	// Establish the starting zone.
	client.MoveTo(10, 15)
	client.Beacon()
	tb.Sim.RunFor(5*time.Second, time.Second)

	var sendToUser metrics.Recorder
	west := true
	for i := 0; i < n; i++ {
		before := tb.User.ReceiptCount()
		if west {
			client.MoveTo(30, 15)
		} else {
			client.MoveTo(10, 15)
		}
		west = !west
		sendAt := tb.Sim.Now()
		client.Beacon()
		ok := tb.Sim.RunUntil(func() bool { return tb.User.ReceiptCount() > before }, 500*time.Millisecond, 2*time.Minute)
		if !ok {
			return nil, fmt.Errorf("E4 move %d never alerted the subscriber", i)
		}
		receipts := tb.User.Receipts()
		sendToUser.Observe(receipts[len(receipts)-1].At.Sub(sendAt))
	}
	s := sendToUser.Summarize()
	res := &Result{ID: "E4", Title: "WISH location alert end-to-end (Section 5)"}
	res.AddRow("laptop send → subscriber IM (mean)", "≈ 5 s", fmtDur(s.Mean), "")
	res.AddRow("laptop send → subscriber IM (p90)", "≈ 5 s", fmtDur(s.P90), "")
	res.AddNote("%d zone transitions; chain: wireless send → WISH localization → SSS update → alert service → buddy → user", s.Count)
	return res, nil
}

func fmtDur(d time.Duration) string {
	return d.Round(10 * time.Millisecond).String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
