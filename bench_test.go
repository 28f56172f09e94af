// Benchmarks regenerating every quantitative result in the paper's
// evaluation (one benchmark per experiment; see DESIGN.md's experiment
// index), the design-choice ablations, and micro-benchmarks of the
// SIMBA library's hot paths. Macro benchmarks report the measured
// virtual-time latencies via ReportMetric so `go test -bench .` shows
// the paper-vs-measured figures alongside wall-clock cost.
package simba_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/harness"
	"simba/internal/hub"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/plog"
	"simba/internal/sss"
)

func rowDuration(res *harness.Result, metric string) (time.Duration, bool) {
	for _, row := range res.Rows {
		if row.Metric == metric {
			d, err := time.ParseDuration(row.Measured)
			if err != nil {
				return 0, false
			}
			return d, true
		}
	}
	return 0, false
}

// BenchmarkE1IMDelivery — Section 5: one-way IM < 1 s, ack ≈ 1.5 s.
func BenchmarkE1IMDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E1IMDelivery(b.TempDir(), 10)
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := rowDuration(res, "one-way IM delivery (mean)"); ok {
			b.ReportMetric(float64(d.Milliseconds()), "oneway-ms")
		}
		if d, ok := rowDuration(res, "ack with pessimistic logging (mean)"); ok {
			b.ReportMetric(float64(d.Milliseconds()), "ack-ms")
		}
	}
}

// BenchmarkE2ProxyRouting — Section 5: detection → user ≈ 2.5 s.
func BenchmarkE2ProxyRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E2ProxyRouting(b.TempDir(), 6)
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := rowDuration(res, "detection → user delivery (mean)"); ok {
			b.ReportMetric(float64(d.Milliseconds()), "detect-to-user-ms")
		}
	}
}

// BenchmarkE3AladdinEndToEnd — Section 5: remote press → IM ≈ 11 s.
func BenchmarkE3AladdinEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E3Aladdin(b.TempDir(), 5)
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := rowDuration(res, "remote press → user IM (mean)"); ok {
			b.ReportMetric(float64(d.Milliseconds()), "end-to-end-ms")
		}
	}
}

// BenchmarkE4WISHLocation — Section 5: laptop send → subscriber ≈ 5 s.
func BenchmarkE4WISHLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E4WISH(b.TempDir(), 5)
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := rowDuration(res, "laptop send → subscriber IM (mean)"); ok {
			b.ReportMetric(float64(d.Milliseconds()), "send-to-user-ms")
		}
	}
}

// BenchmarkE5FaultMonth — Section 5's one-month availability study,
// compressed to 3 simulated days per iteration (run cmd/simba-bench
// for the full 30-day table).
func BenchmarkE5FaultMonth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E5FaultMonth(b.TempDir(), 3)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkE6BaselineRedundancy — naive 2-email+2-SMS vs SIMBA.
func BenchmarkE6BaselineRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E6Baseline(b.TempDir(), 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7PortalScale — Section 1's portal workload (≈9 alerts/s).
func BenchmarkE7PortalScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E7PortalScale(1000, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoPlog — value of pessimistic logging.
func BenchmarkAblationNoPlog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationNoPlog(b.TempDir(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoMonkey — value of the dialog-handling monkey.
func BenchmarkAblationNoMonkey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationNoMonkey(b.TempDir(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4AckTimeoutSweep — delivery-mode timeout tradeoff.
func BenchmarkA4AckTimeoutSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		timeouts := []time.Duration{2 * time.Second, 15 * time.Second}
		if _, err := harness.A4AckTimeoutSweep(b.TempDir(), 8, timeouts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationProbePeriod — MDC probe-period sweep.
func BenchmarkAblationProbePeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		periods := []time.Duration{time.Minute, 3 * time.Minute}
		if _, err := harness.AblationProbePeriod(b.TempDir(), periods); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the library's hot paths -----------------------

// BenchmarkF4DeliveryModeCodec — Figure 4's XML document round trip.
func BenchmarkF4DeliveryModeCodec(b *testing.B) {
	m := dmode.Figure4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := m.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dmode.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlertWireCodec — the alert payload round trip.
func BenchmarkAlertWireCodec(b *testing.B) {
	a := &alert.Alert{
		ID: "bench-1", Source: "bench", Keywords: []string{"Stocks", "Earnings"},
		Subject: "MSFT earnings", Body: "Quarterly results are out.",
		Urgency: alert.UrgencyHigh, Created: time.Unix(985597200, 0),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := a.MarshalText()
		if err != nil {
			b.Fatal(err)
		}
		var out alert.Alert
		if err := out.UnmarshalText(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDeliverEmail — one fire-and-forget delivery through
// the engine with an instant transport.
func BenchmarkEngineDeliverEmail(b *testing.B) {
	clk := clock.NewReal()
	engine, err := core.NewEngine(clk, nil, instantSender{})
	if err != nil {
		b.Fatal(err)
	}
	reg := addr.NewRegistry("u")
	if err := reg.Register(addr.Address{Type: addr.TypeEmail, Name: "inbox", Target: "u@x", Enabled: true}); err != nil {
		b.Fatal(err)
	}
	mode := &dmode.Mode{Name: "m", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "inbox"}}}}}
	a := &alert.Alert{ID: "x", Source: "s", Urgency: alert.UrgencyNormal, Created: clk.Now()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Deliver(a, reg, mode); err != nil {
			b.Fatal(err)
		}
	}
}

type instantSender struct{}

func (instantSender) Send(to, subject, body string) error { return nil }

// BenchmarkClassifyAggregateFilter — the MyAlertBuddy pipeline stages.
func BenchmarkClassifyAggregateFilter(b *testing.B) {
	cls := mab.NewClassifier()
	cls.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	agg := mab.NewAggregator()
	agg.Map("Stocks", "Investment")
	fil := mab.NewFilter()
	a := &alert.Alert{
		ID: "x", Source: "portal", Keywords: []string{"Stocks"},
		Urgency: alert.UrgencyNormal, Created: time.Unix(985597200, 0),
	}
	now := a.Created
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kws, ok := cls.Classify(a, "")
		if !ok {
			b.Fatal("rejected")
		}
		cat := agg.Aggregate(kws)
		if !fil.Allow(cat, now) {
			b.Fatal("filtered")
		}
	}
}

// BenchmarkPlogLogReceived — pessimistic-log append+fsync cost.
func BenchmarkPlogLogReceived(b *testing.B) {
	l, err := plog.Open(b.TempDir() + "/bench.plog")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte("SIMBA-ALERT/1\nID: x\n...")
	at := time.Unix(985597200, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.LogReceived(fmt.Sprintf("k-%d", i), payload, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSWrite — soft-state store update + event dispatch.
func BenchmarkSSSWrite(b *testing.B) {
	sim := clock.NewSim(time.Time{})
	s, err := sss.NewStore(sim, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Define(sss.Spec{Name: "v", RefreshEvery: time.Hour, MaxMissed: 3}); err != nil {
		b.Fatal(err)
	}
	events := 0
	s.Subscribe("", func(sss.Event) { events++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write("v", fmt.Sprintf("state-%d", i&1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWISHLocate — fingerprint localization over the grid.
func BenchmarkWISHLocate(b *testing.B) {
	tb, err := harness.NewTestbed(harness.Options{TempDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	rng := dist.NewRNG(1)
	strengths := []float64{-60, -70, -65, -72}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Wish.Locate(strengths); err != nil {
			b.Fatal(err)
		}
	}
	_ = rng
}

// BenchmarkHubThroughput — the multi-tenant hosting experiment: 1,000
// hosted buddies on 8 shards over one shared group-commit WAL, fed a
// portal workload by concurrent submitters with overload retry.
// Reports sustained alerts/s and fsync amplification; the
// fsyncs-per-alert figure should be ≥10× below the per-append plog
// baseline (2 fsyncs per alert: RECV + DONE).
func BenchmarkHubThroughput(b *testing.B) {
	const users, alerts, workers = 1000, 5000, 32
	clk := clock.NewReal()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := dist.NewRNG(int64(i) + 1)
		sink := hub.NewSimSink(rng.Fork("substrate"), 8, nil, 0)
		h, err := hub.New(hub.Config{
			Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink),
			WALPath: b.TempDir() + "/hub.wal",
			Shards:  8, QueueDepth: 512,
			CommitWindow: 2 * time.Millisecond,
			RNG:          rng,
		})
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < users; u++ {
			bd, err := h.AddUser(fmt.Sprintf("user-%d", u))
			if err != nil {
				b.Fatal(err)
			}
			bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
			bd.Pipeline().Aggregator.Map("stocks", "Investment")
		}
		if err := h.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < alerts; j += workers {
					a := &alert.Alert{
						ID: fmt.Sprintf("a-%d-%d", i, j), Source: "portal",
						Keywords: []string{"stocks"}, Subject: "quote update",
						Urgency: alert.UrgencyNormal, Created: clk.Now(),
					}
					for {
						err := h.Submit(fmt.Sprintf("user-%d", j%users), a)
						var over *hub.OverloadError
						if errors.As(err, &over) {
							time.Sleep(over.RetryAfter)
							continue
						}
						if err != nil {
							b.Error(err)
							return
						}
						break
					}
				}
			}(w)
		}
		wg.Wait()
		if err := h.Drain(); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		st := h.Stats()
		b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
		b.ReportMetric(float64(st.Syncs)/float64(alerts), "fsyncs/alert")
		b.ReportMetric(st.MeanBatch, "records/fsync")
	}
}

// BenchmarkHubBatchIngest — the batched-ingest experiment: the same
// hosted portal workload as BenchmarkHubThroughput (1,000 buddies, 8
// shards, shared group-commit WAL) but offered in bursts of 64 through
// SubmitBatch by 128 concurrent submitters. A burst pays for
// validation, admission, and — decisively — the group-commit
// durability wait once instead of per alert, so sustained ingest must
// reach ≥2× the one-at-a-time BenchmarkHubThroughput figure at equal
// shard count; see BENCH_hub.json for recorded runs.
func BenchmarkHubBatchIngest(b *testing.B) {
	// "plain" is the sub-benchmark scripts/alloc_gate.sh gates on.
	b.Run("plain", func(b *testing.B) {
		benchHubBatchIngest(b, false)
	})
	// The supervised variant prices the self-management plane: watchdog
	// probes and invariant checks read shard atomics only, never shard
	// locks, so this must stay within noise of plain.
	b.Run("supervised", func(b *testing.B) {
		benchHubBatchIngest(b, true)
	})
}

// benchIngestFixture preallocates everything the timed submit loop
// would otherwise allocate — user names, per-alert IDs, and the alert
// structs themselves — so the benchmark's allocs/op measures the hub's
// ingest path, not the harness's fmt.Sprintf traffic. Built under
// StopTimer each iteration (IDs embed the iteration index to stay
// dedup-unique across b.N).
type benchIngestFixture struct {
	names  []string
	alerts []alert.Alert
}

func newBenchIngestFixture(iter, users, alerts int, clk clock.Clock) *benchIngestFixture {
	f := &benchIngestFixture{
		names:  make([]string, users),
		alerts: make([]alert.Alert, alerts),
	}
	for u := range f.names {
		f.names[u] = fmt.Sprintf("user-%d", u)
	}
	kws := []string{"stocks"} // read-only downstream: one shared slice
	now := clk.Now()
	for k := range f.alerts {
		f.alerts[k] = alert.Alert{
			ID: fmt.Sprintf("a-%d-%d", iter, k), Source: "portal",
			Keywords: kws, Subject: "quote update",
			Urgency: alert.UrgencyNormal, Created: now,
		}
	}
	return f
}

// sub returns the k-th submission, referencing preallocated storage.
func (f *benchIngestFixture) sub(k int) hub.Submission {
	return hub.Submission{User: f.names[k%len(f.names)], Alert: &f.alerts[k]}
}

// benchHubBatchIngest runs the batched portal workload against an
// 8-shard hub. With supervised, the full supervision plane (shard
// watchdog + invariant checks) runs at its default cadence throughout
// the ingest.
func benchHubBatchIngest(b *testing.B, supervised bool) {
	const users, alerts, submitters, burstSize = 1000, 20000, 128, 64
	clk := clock.NewReal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := dist.NewRNG(int64(i) + 1)
		sink := hub.NewSimSink(rng.Fork("substrate"), 8, nil, 0)
		h, err := hub.New(hub.Config{
			Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink),
			WALPath: b.TempDir() + "/hub.wal",
			Shards:  8, QueueDepth: 512,
			CommitWindow: 2 * time.Millisecond,
			RNG:          rng,
		})
		if err != nil {
			b.Fatal(err)
		}
		fix := newBenchIngestFixture(i, users, alerts, clk)
		for u := 0; u < users; u++ {
			bd, err := h.AddUser(fix.names[u])
			if err != nil {
				b.Fatal(err)
			}
			bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
			bd.Pipeline().Aggregator.Map("stocks", "Investment")
		}
		if err := h.Start(); err != nil {
			b.Fatal(err)
		}
		var sup *hub.Supervisor
		if supervised {
			if sup, err = h.Supervise(hub.SuperviseConfig{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		start := time.Now()
		var wg sync.WaitGroup
		per := alerts / submitters
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				burst := make([]hub.Submission, 0, burstSize)
				lo, hi := w*per, (w+1)*per
				for j := lo; j < hi; j += burstSize {
					burst = burst[:0]
					for k := j; k < j+burstSize && k < hi; k++ {
						burst = append(burst, fix.sub(k))
					}
					for len(burst) > 0 {
						errs := h.SubmitBatch(burst)
						retry := burst[:0]
						var hint time.Duration
						for idx, err := range errs {
							var over *hub.OverloadError
							if errors.As(err, &over) {
								retry = append(retry, burst[idx])
								hint = over.RetryAfter
								continue
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
						burst = retry
						if len(burst) > 0 {
							time.Sleep(hint)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if sup != nil {
			sup.Stop()
		}
		if err := h.Drain(); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		st := h.Stats()
		b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
		b.ReportMetric(float64(st.Syncs)/float64(alerts), "fsyncs/alert")
		b.ReportMetric(st.MeanBatch, "records/fsync")
		b.ReportMetric(st.WAL.StagedBatches.Mean(), "alerts/staged-batch")
	}
}

// BenchmarkHubAsyncIngest — the pipelined-ingest experiment: the
// batched portal workload of BenchmarkHubBatchIngest offered by a
// SMALL submitter pool (the client-limited regime, where a blocking
// submitter leaves the commit pipeline idle between bursts), each
// submitter keeping a sliding window of `depth` SubmitBatchAsync
// tickets in flight. depth-1 IS the synchronous baseline — the window
// degenerates to submit-then-wait, exactly SubmitBatch's blocking
// behavior — so the sweep isolates what pipelining buys at equal
// submitter count: depth ≥ 4 must reach ≥1.3× the depth-1 figure.
// (Single host, single core shared between submitters, the WAL
// committer, and delivery — see BENCH_hub.json for recorded runs and
// caveats.) Also reports the adaptive scheduler's p99 admission
// latency.
func BenchmarkHubAsyncIngest(b *testing.B) {
	for _, depth := range []int{
		1, // synchronous baseline: window of one ticket
		4,
		8,
	} {
		b.Run(fmt.Sprintf("depth-%d-sub-1", depth), func(b *testing.B) {
			benchHubAsyncIngest(b, depth, 1)
		})
	}
}

func benchHubAsyncIngest(b *testing.B, depth, submitters int) {
	const users, alerts, burstSize = 1000, 20000, 64
	clk := clock.NewReal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := dist.NewRNG(int64(i) + 1)
		sink := hub.NewSimSink(rng.Fork("substrate"), 8, nil, 0)
		// QueueDepth sized so the deepest window (submitters × depth ×
		// burstSize alerts in flight) fits admission capacity: the sweep
		// measures pipelining, not overload-retry thrash.
		h, err := hub.New(hub.Config{
			Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink),
			WALPath: b.TempDir() + "/hub.wal",
			Shards:  8, QueueDepth: 2048,
			CommitWindow: 2 * time.Millisecond,
			RNG:          rng,
		})
		if err != nil {
			b.Fatal(err)
		}
		fix := newBenchIngestFixture(i, users, alerts, clk)
		for u := 0; u < users; u++ {
			bd, err := h.AddUser(fix.names[u])
			if err != nil {
				b.Fatal(err)
			}
			bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
			bd.Pipeline().Aggregator.Map("stocks", "Investment")
		}
		if err := h.Start(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		start := time.Now()
		var wg sync.WaitGroup
		per := alerts / submitters
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				type flight struct {
					tk   *hub.Ticket
					subs []hub.Submission
				}
				free := make([][]hub.Submission, depth)
				for s := range free {
					free[s] = make([]hub.Submission, 0, burstSize)
				}
				window := make([]flight, 0, depth)
				scratch := make([]hub.Submission, 0, burstSize)
				// settle waits out a ticket and resubmits (synchronously —
				// overload is the slow path) any overloaded entries, then
				// returns the flight's burst slice for reuse.
				settle := func(f flight) []hub.Submission {
					retry := scratch[:0]
					var hint time.Duration
					for idx, err := range f.tk.Wait() {
						var over *hub.OverloadError
						if errors.As(err, &over) {
							retry = append(retry, f.subs[idx])
							hint = over.RetryAfter
							continue
						}
						if err != nil {
							b.Error(err)
						}
					}
					for len(retry) > 0 {
						time.Sleep(hint)
						next := retry[:0]
						for idx, err := range h.SubmitBatch(retry) {
							var over *hub.OverloadError
							if errors.As(err, &over) {
								next = append(next, retry[idx])
								hint = over.RetryAfter
								continue
							}
							if err != nil {
								b.Error(err)
							}
						}
						retry = next
					}
					return f.subs[:0]
				}
				lo, hi := w*per, (w+1)*per
				for j := lo; j < hi; j += burstSize {
					var burst []hub.Submission
					if n := len(free); n > 0 {
						burst, free = free[n-1], free[:n-1]
					} else {
						burst = settle(window[0])
						window = window[1:]
					}
					for k := j; k < j+burstSize && k < hi; k++ {
						burst = append(burst, fix.sub(k))
					}
					window = append(window, flight{h.SubmitBatchAsync(burst, nil), burst})
				}
				for _, f := range window {
					settle(f)
				}
			}(w)
		}
		wg.Wait()
		if err := h.Drain(); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		st := h.Stats()
		b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
		b.ReportMetric(float64(st.Syncs)/float64(alerts), "fsyncs/alert")
		b.ReportMetric(st.MeanBatch, "records/fsync")
		b.ReportMetric(float64(h.Stages().Admission.P99.Microseconds()), "admit-p99-us")
	}
}

// BenchmarkHubGuaranteedOverhead — the QoS-tier experiment: the
// batched portal workload of BenchmarkHubBatchIngest against a flaky
// substrate (10% simulated drop, attempt budget 2), with 0% vs 50% of
// tenants on the guaranteed tier. The 0% variant prices the tier
// plumbing alone (plan tier resolution + per-tier counters) and must
// stay within noise of BenchmarkHubBatchIngest; the 50% variant adds
// the real cost — WAL-backed outbox handoffs for every
// attempt-exhausted guaranteed alert — which stays off the ingest hot
// path entirely. See BENCH_hub.json for recorded runs.
func BenchmarkHubGuaranteedOverhead(b *testing.B) {
	const users, alerts, submitters, burstSize = 1000, 20000, 128, 64
	for _, frac := range []struct {
		name string
		frac float64
	}{{"guaranteed-0pct", 0}, {"guaranteed-50pct", 0.5}} {
		b.Run(frac.name, func(b *testing.B) {
			clk := clock.NewReal()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rng := dist.NewRNG(int64(i) + 1)
				sink := hub.NewSimSink(rng.Fork("substrate"), 8, nil, 0.1)
				h, err := hub.New(hub.Config{
					Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink),
					WALPath: b.TempDir() + "/hub.wal",
					Shards:  8, QueueDepth: 512,
					CommitWindow:        2 * time.Millisecond,
					DeliveryMaxAttempts: 2,
					OutboxPath:          b.TempDir() + "/hub.outbox",
					OutboxBackoff:       time.Millisecond,
					RNG:                 rng,
				})
				if err != nil {
					b.Fatal(err)
				}
				guaranteed := int(frac.frac * users)
				for u := 0; u < users; u++ {
					bd, err := h.AddUser(fmt.Sprintf("user-%d", u))
					if err != nil {
						b.Fatal(err)
					}
					bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
					bd.Pipeline().Aggregator.Map("stocks", "Investment")
					if u < guaranteed {
						if err := bd.SetTier(core.TierGuaranteed); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := h.Start(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				var wg sync.WaitGroup
				per := alerts / submitters
				for w := 0; w < submitters; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						burst := make([]hub.Submission, 0, burstSize)
						lo, hi := w*per, (w+1)*per
						for j := lo; j < hi; j += burstSize {
							burst = burst[:0]
							for k := j; k < j+burstSize && k < hi; k++ {
								burst = append(burst, hub.Submission{
									User: fmt.Sprintf("user-%d", k%users),
									Alert: &alert.Alert{
										ID: fmt.Sprintf("a-%d-%d", i, k), Source: "portal",
										Keywords: []string{"stocks"}, Subject: "quote update",
										Urgency: alert.UrgencyNormal, Created: clk.Now(),
									},
								})
							}
							for len(burst) > 0 {
								errs := h.SubmitBatch(burst)
								retry := burst[:0]
								var hint time.Duration
								for idx, err := range errs {
									var over *hub.OverloadError
									if errors.As(err, &over) {
										retry = append(retry, burst[idx])
										hint = over.RetryAfter
										continue
									}
									if err != nil {
										b.Error(err)
										return
									}
								}
								burst = retry
								if len(burst) > 0 {
									time.Sleep(hint)
								}
							}
						}
					}(w)
				}
				wg.Wait()
				if err := h.Drain(); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				st := h.Stats()
				b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
				b.ReportMetric(float64(st.OutboxHandoffs), "outbox-handoffs")
				b.ReportMetric(float64(st.Tiers[core.TierBestEffort].Lost), "best-effort-lost")
			}
		})
	}
}

// BenchmarkHubSlowSink — the pipelined-delivery experiment: 1,000
// hosted buddies on 8 shards fed through a sink that really sleeps 1 ms
// per delivery (an IM manager or email fallback at realistic latency).
// The "sync" baseline serializes deliveries per shard (DeliveryWindow
// 1 — the pre-pipeline behavior, where one slow delivery stalls every
// tenant on the shard); "pipelined" uses the default bounded in-flight
// window, so only same-user deliveries chain. The pipelined variant
// must sustain ≥5× the baseline throughput at equal shard count; see
// BENCH_hub.json for recorded figures.
func BenchmarkHubSlowSink(b *testing.B) {
	const users, alerts, workers = 1000, 8000, 128
	const sinkLatency = time.Millisecond
	for _, mode := range []struct {
		name   string
		window int
	}{
		{"sync", 1},
		{"pipelined", 0}, // default DeliveryWindow
	} {
		b.Run(mode.name, func(b *testing.B) {
			clk := clock.NewReal()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var delivered atomic.Int64
				sink := core.ChannelFunc(func(core.Send) (core.SendResult, error) {
					time.Sleep(sinkLatency)
					delivered.Add(1)
					return core.SendResult{Confirmed: true}, nil
				})
				h, err := hub.New(hub.Config{
					Clock: clk, Channels: core.NewChannels().Register(addr.TypeSink, sink),
					WALPath: b.TempDir() + "/hub.wal",
					Shards:  8, QueueDepth: 512,
					CommitWindow:   2 * time.Millisecond,
					DeliveryWindow: mode.window,
					RNG:            dist.NewRNG(int64(i) + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for u := 0; u < users; u++ {
					bd, err := h.AddUser(fmt.Sprintf("user-%d", u))
					if err != nil {
						b.Fatal(err)
					}
					bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
					bd.Pipeline().Aggregator.Map("stocks", "Investment")
				}
				if err := h.Start(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := w; j < alerts; j += workers {
							a := &alert.Alert{
								ID: fmt.Sprintf("a-%d-%d", i, j), Source: "portal",
								Keywords: []string{"stocks"}, Subject: "quote update",
								Urgency: alert.UrgencyNormal, Created: clk.Now(),
							}
							for {
								err := h.Submit(fmt.Sprintf("user-%d", j%users), a)
								var over *hub.OverloadError
								if errors.As(err, &over) {
									time.Sleep(over.RetryAfter)
									continue
								}
								if err != nil {
									b.Error(err)
									return
								}
								break
							}
						}
					}(w)
				}
				wg.Wait()
				if err := h.Drain(); err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start)
				if got := delivered.Load(); got != alerts {
					b.Fatalf("delivered %d, want %d", got, alerts)
				}
				st := h.Stats()
				b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
				peak := 0
				for _, sh := range st.Shards {
					if sh.PeakInFlight > peak {
						peak = sh.PeakInFlight
					}
				}
				b.ReportMetric(float64(peak), "peak-inflight/shard")
			}
		})
	}
}

// BenchmarkPipelineEvaluate — the per-tenant classify→aggregate→filter
// hot path with a mixed-case keyword, the case the hub's routing stage
// hits on every alert. The stages read copy-on-write snapshots, so the
// native-keyword path takes zero mutex acquisitions and zero
// allocations per evaluation (the classifier returns the alert's own
// keyword slice instead of copying it; the aggregator's case fold is
// allocation-free).
func BenchmarkPipelineEvaluate(b *testing.B) {
	p := mab.NewPipeline()
	p.Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	p.Aggregator.Map("Stocks", "Investment")
	a := &alert.Alert{
		ID: "x", Source: "portal", Keywords: []string{"Stocks"},
		Urgency: alert.UrgencyNormal, Created: time.Unix(985597200, 0),
	}
	now := a.Created
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v := p.Evaluate(a, now); v != mab.VerdictRoute {
			b.Fatal(v)
		}
	}
}

// BenchmarkHubModeDelivery — the shared-mode-executor experiment: the
// same hosted portal workload delivered through the flat substrate
// (every tenant executes the synthesized one-block Flat mode over the
// SINK channel) versus through real per-tenant "IM with
// acknowledgement, fallback email" modes, with IM acks injected back
// through the hub after a 1 ms round trip. Reports sustained alerts/s
// for both variants and, for the mode variant, the fraction confirmed
// over IM (the remainder fell back to email on ack timeout).
func BenchmarkHubModeDelivery(b *testing.B) {
	const users, alerts, workers, shards = 500, 2500, 32, 8
	clk := clock.NewReal()
	run := func(b *testing.B, withModes bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var h *hub.Hub
			var imSeq atomic.Uint64
			confirm := core.ChannelFunc(func(core.Send) (core.SendResult, error) {
				return core.SendResult{Confirmed: true}, nil
			})
			channels := core.NewChannels().
				Register(addr.TypeSink, confirm).
				Register(addr.TypeEmail, confirm).
				Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
					seq := imSeq.Add(1)
					handle := req.To
					go func() {
						time.Sleep(time.Millisecond)
						h.HandleIncoming(im.Message{From: handle, Text: core.AckText(seq)})
					}()
					return core.SendResult{Seq: seq}, nil
				}))
			h, err := hub.New(hub.Config{
				Clock: clk, Channels: channels,
				WALPath: b.TempDir() + "/hub.wal",
				Shards:  shards, QueueDepth: 512,
				CommitWindow: 2 * time.Millisecond,
				AckTimeout:   25 * time.Millisecond,
				RNG:          dist.NewRNG(int64(i) + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < users; u++ {
				user := fmt.Sprintf("user-%d", u)
				bd, err := h.AddUser(user)
				if err != nil {
					b.Fatal(err)
				}
				bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
				bd.Pipeline().Aggregator.Map("stocks", "Investment")
				if withModes {
					p, err := core.NewProfile(user)
					if err != nil {
						b.Fatal(err)
					}
					for _, a := range []addr.Address{
						{Type: addr.TypeIM, Name: "Pager IM", Target: user + "@im", Enabled: true},
						{Type: addr.TypeEmail, Name: "Work email", Target: user + "@mail", Enabled: true},
					} {
						if err := p.Addresses().Register(a); err != nil {
							b.Fatal(err)
						}
					}
					// Zero block timeout: the hub substitutes AckTimeout.
					if err := p.DefineMode(dmode.IMThenEmail("Pager IM", "Work email", 0)); err != nil {
						b.Fatal(err)
					}
					bd.SetProfile(p)
					if err := bd.Subscribe("Investment", "IMThenEmail"); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := h.Start(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := w; j < alerts; j += workers {
						a := &alert.Alert{
							ID: fmt.Sprintf("a-%d-%d", i, j), Source: "portal",
							Keywords: []string{"stocks"}, Subject: "quote update",
							Urgency: alert.UrgencyNormal, Created: clk.Now(),
						}
						for {
							err := h.Submit(fmt.Sprintf("user-%d", j%users), a)
							var over *hub.OverloadError
							if errors.As(err, &over) {
								time.Sleep(over.RetryAfter)
								continue
							}
							if err != nil {
								b.Error(err)
								return
							}
							break
						}
					}
				}(w)
			}
			wg.Wait()
			if err := h.Drain(); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			st := h.Stats()
			b.ReportMetric(float64(alerts)/elapsed.Seconds(), "alerts/s")
			if withModes {
				b.ReportMetric(float64(st.DeliveredByChannel[addr.TypeIM])/float64(alerts), "im-share")
			}
		}
	}
	b.Run("flat", func(b *testing.B) { run(b, false) })
	b.Run("mode", func(b *testing.B) { run(b, true) })
}

// BenchmarkSoakRandomFaults — randomized fault soak (2 simulated days
// of Poisson fault arrivals under the MDC).
func BenchmarkSoakRandomFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.SoakRandomFaults(b.TempDir(), int64(i)+1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Recovered {
			b.Fatalf("soak did not recover: %s", res)
		}
	}
}
