package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/hub"
	"simba/internal/mab"
)

// E7 offers its alerts from e7Workers submitters in bursts of e7Burst.
const (
	e7Workers = 8
	e7Burst   = 64
)

// e7Tenant hosts user i: one profile with one email-only mode and one
// personal category mapped from one native keyword.
func e7Tenant(h *hub.Hub, i int) error {
	name := fmt.Sprintf("user-%d", i)
	b, err := h.AddUser(name)
	if err != nil {
		return err
	}
	profile, err := core.NewProfile(name)
	if err != nil {
		return err
	}
	if err := profile.Addresses().Register(addr.Address{
		Type: addr.TypeEmail, Name: "inbox", Target: name + "@portal.sim", Enabled: true,
	}); err != nil {
		return err
	}
	if err := profile.DefineMode(&dmode.Mode{Name: "email", Blocks: []dmode.Block{
		{Actions: []dmode.Action{{Address: "inbox"}}},
	}}); err != nil {
		return err
	}
	category := fmt.Sprintf("cat-%d", i)
	b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	b.Pipeline().Aggregator.Map(fmt.Sprintf("kw-%d", i), category)
	b.SetProfile(profile)
	return b.Subscribe(category, "email")
}

// e7Offer submits alerts lo..hi-1 in bursts; entries a full shard
// refused are retried after its hint, any other error ends the worker.
func e7Offer(h *hub.Hub, users, lo, hi int) error {
	burst := make([]hub.Submission, 0, e7Burst)
	var over *hub.OverloadError // hoisted: errors.As would move a per-entry one to the heap
	for i := lo; i < hi; i += e7Burst {
		burst = burst[:0]
		for k := i; k < min(i+e7Burst, hi); k++ {
			burst = append(burst, hub.Submission{
				User: fmt.Sprintf("user-%d", k%users),
				Alert: &alert.Alert{
					ID:       fmt.Sprintf("p-%d", k),
					Source:   "portal",
					Keywords: []string{fmt.Sprintf("kw-%d", k%users)},
					Subject:  "portal alert",
					Body:     "stock quote update",
					Urgency:  alert.UrgencyNormal,
					Created:  time.Now(),
				},
			})
		}
		for len(burst) > 0 {
			retry := burst[:0]
			var hint time.Duration
			for idx, err := range h.SubmitBatch(burst) {
				if errors.As(err, &over) {
					retry = append(retry, burst[idx])
					hint = over.RetryAfter
				} else if err != nil {
					return err
				}
			}
			if burst = retry; len(burst) > 0 {
				time.Sleep(hint)
			}
		}
	}
	return nil
}

// E7PortalScale measures the hub — log before ack, route, deliver, mark
// processed — against the portal workload from Section 1: about 225
// thousand users receiving about 778 thousand alerts per day (≈9
// alerts/second on average) at one commercial portal.
func E7PortalScale(users, alerts int) (*Result, error) {
	if users <= 0 {
		users = 2000
	}
	if alerts <= 0 {
		alerts = 20000
	}
	dir, err := os.MkdirTemp("", "simba-e7")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Email is an in-memory counter, so E7 measures SIMBA's own cost —
	// the journal's fsyncs included — rather than simulated network delays.
	var sent atomic.Int64
	h, err := hub.New(hub.Config{
		Clock: clock.NewReal(),
		Channels: core.NewChannels().Register(addr.TypeEmail, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			sent.Add(1)
			return core.SendResult{Confirmed: true}, nil
		})),
		WALPath: filepath.Join(dir, "hub.wal"),
	})
	if err != nil {
		return nil, err
	}
	defer h.Drain() // idempotent: closes the journal on the error paths too
	for i := 0; i < users; i++ {
		if err := e7Tenant(h, i); err != nil {
			return nil, err
		}
	}
	if err := h.Start(); err != nil {
		return nil, err
	}
	per := (alerts + e7Workers - 1) / e7Workers
	errs := make([]error, e7Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < e7Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = e7Offer(h, users, w*per, min((w+1)*per, alerts))
		}(w)
	}
	wg.Wait()
	if err := errors.Join(append(errs, h.Drain())...); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	delivered := sent.Load()
	throughput := float64(delivered) / elapsed.Seconds()
	res := &Result{ID: "E7", Title: "Portal-scale routing throughput (Section 1 workload)"}
	res.AddRow("portal load", "≈225k users, ≈778k alerts/day (≈9/s)",
		fmt.Sprintf("%.0f alerts/s sustained", throughput), "")
	res.AddRow("headroom over portal average", "—", fmt.Sprintf("%.0f×", throughput/9), "")
	res.AddNote("%d hosted users, %d of %d alerts delivered through the hub — pessimistic log before ack, classify→aggregate→filter→route, email-mode delivery, mark processed — from %d workers in bursts of %d with in-memory transport; the figure includes the journal: %.4f fsyncs/alert",
		users, delivered, alerts, e7Workers, e7Burst, float64(h.Stats().Syncs)/float64(alerts))
	return res, nil
}
