package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"simba/internal/addr"
	"simba/internal/aladdin"
	"simba/internal/alert"
	"simba/internal/dmode"
	"simba/internal/metrics"
	"simba/internal/sms"
)

// policyStats summarizes one policy under one presence scenario.
type policyStats struct {
	name      string
	sent      int // alerts injected
	delivered int // distinct alerts that reached the user in the horizon
	onTime    int // delivered within a minute
	median    time.Duration
	msgsPerAl float64 // messages arriving at the user's devices per alert
}

// E6Baseline compares the pre-SIMBA Aladdin delivery policy (every
// alert as 2 duplicated emails + 2 duplicated SMS, Section 2.3)
// against SIMBA's IM-with-ack + email fallback, under heavy-tailed
// email/SMS delay and loss, for a user at the desk and a user away.
// It reports timeliness, reliability, and the irritation factor
// (messages landing on the user's devices per alert).
func E6Baseline(tempDir string, n int) (*Result, error) {
	if n <= 0 {
		n = 80
	}
	tb, err := NewTestbed(Options{TempDir: tempDir, HeavyTails: true})
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
		{Type: addr.TypeEmail, Name: "Home email", Target: UserHomeEmail, Enabled: true},
		{Type: addr.TypeSMS, Name: "Cell SMS", Target: sms.GatewayAddress(UserPhone), Enabled: true},
		{Type: addr.TypeSMS, Name: "Cell SMS again", Target: sms.GatewayAddress(UserPhone), Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			return nil, err
		}
	}
	naive := aladdin.NaiveRedundantMode("Work email", "Home email", "Cell SMS", "Cell SMS again")
	simbaMode := &dmode.Mode{Name: "SIMBA", Blocks: []dmode.Block{
		{Timeout: dmode.Duration(15 * time.Second), Actions: []dmode.Action{{Address: "MSN IM"}}},
		{Actions: []dmode.Action{{Address: "Work email"}}},
	}}

	res := &Result{ID: "E6", Title: "Naive 2-email+2-SMS redundancy vs SIMBA IM-with-fallback (Section 2.3)"}
	for _, present := range []bool{true, false} {
		tb.User.SetPresent(present)
		scenario := "user at desk"
		if !present {
			scenario = "user away"
		}
		for _, policy := range []struct {
			name   string
			prefix string
			mode   *dmode.Mode
		}{
			{"naive", fmt.Sprintf("e6n%v", present), naive},
			{"SIMBA", fmt.Sprintf("e6s%v", present), simbaMode},
		} {
			st, err := runPolicy(tb, reg, policy.mode, policy.prefix, n)
			if err != nil {
				return nil, fmt.Errorf("E6 %s/%s: %w", policy.name, scenario, err)
			}
			st.name = policy.name + ", " + scenario
			paper := "unreliable AND irritating (4 msgs/alert)"
			if policy.name == "SIMBA" {
				paper = "timely, reliable, 1 msg/alert"
			}
			res.AddRow(st.name, paper,
				fmt.Sprintf("%d/%d delivered, %d on-time(1m), median %s, %.1f msgs/alert",
					st.delivered, st.sent, st.onTime, fmtDur(st.median), st.msgsPerAl), "")
		}
	}
	res.AddNote("heavy-tailed email/SMS delays with %.0f%%/%.0f%% loss; %d alerts per cell; 20-minute delivery horizon",
		tb.Opts.EmailLoss*100, tb.Opts.SMSLoss*100, n)
	res.AddNote("shape check: SIMBA dominates on timeliness when the user is reachable and matches the baseline when not, at a quarter of the message burden")
	return res, nil
}

// runPolicy injects n alerts under mode and measures the user side.
func runPolicy(tb *Testbed, reg *addr.Registry, mode *dmode.Mode, prefix string, n int) (*policyStats, error) {
	beforeReceipts := tb.User.ReceiptCount()
	beforeDups := tb.User.Duplicates()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		a := &alert.Alert{
			ID:       fmt.Sprintf("%s-%d", prefix, i),
			Source:   "aladdin",
			Keywords: []string{"Sensor ON"},
			Subject:  "Basement Water Sensor ON",
			Urgency:  alert.UrgencyCritical,
			Created:  tb.Sim.Now(),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = tb.SrcEngine.Deliver(a, reg, mode)
		}()
		// Space alerts 10 virtual seconds apart.
		tb.Sim.RunFor(10*time.Second, 2*time.Second)
	}
	// Horizon for the delay tails.
	tb.Sim.RunFor(20*time.Minute, 10*time.Second)
	wg.Wait()

	st := &policyStats{sent: n}
	var lat metrics.Recorder
	for _, r := range tb.User.Receipts()[beforeReceipts:] {
		if !strings.HasPrefix(r.Alert.ID, prefix+"-") {
			continue
		}
		st.delivered++
		lat.Observe(r.Latency)
		if r.Latency <= time.Minute {
			st.onTime++
		}
	}
	st.median = lat.Summarize().P50
	arrivals := (tb.User.ReceiptCount() - beforeReceipts) + (tb.User.Duplicates() - beforeDups)
	st.msgsPerAl = float64(arrivals) / float64(n)
	return st, nil
}
