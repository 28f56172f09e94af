// Command simbad runs a live SIMBA deployment in simulated time and
// narrates it: every alert source from the paper (alert proxy,
// web-store monitor, Aladdin home, WISH location tracking, desktop
// assistant) feeds one MyAlertBuddy under a Master Daemon Controller,
// delivering to one user, while a fault script exercises the
// availability machinery. Events stream to stdout as virtual time
// advances.
//
// With -hub, simbad instead hosts N MyAlertBuddy pipelines behind a
// K-way sharded hub over one shared group-commit WAL, feeds them a
// portal-style workload in real time, then prints the operator report:
// throughput, fsync amplification, latency, and admission statistics.
// It is a demo and the ops plane's host, not the measurement harness —
// the hub's numbers come from `go run -C benchmark simba/benchmark`.
//
// Usage:
//
//	simbad [-hours N] [-pprof ADDR]
//	simbad -hub [-users N] [-shards K] [-alerts M] [-burst B] [-window D] [-seed S]
//	       [-mode-frac F] [-ack-timeout D] [-im-ack-p P]
//	       [-guaranteed-frac F] [-outbox-backoff D]
//	       [-admin ADDR] [-probe-period D] [-rejuvenate-every D] [-linger D]
//	       [-pprof ADDR]
//
// The portal workload is offered through Hub.SubmitBatch in bursts of
// -burst alerts (amortizing the group-commit durability wait across
// each burst). Every shard stages into the one ingest WAL, so a burst
// costs one fsync however many shards it touches. The -window commit
// window is an upper bound, not a fixed tax: the adaptive scheduler
// fires immediately when the log is idle and force-flushes a window
// whose staged backlog already justifies the fsync. -pprof serves
// net/http/pprof on the given address (e.g. localhost:6060) for
// profiling either mode while it runs.
//
// A -mode-frac fraction of hosted tenants carries a personalized
// "IM with acknowledgement, fallback email" delivery mode executed by
// the hub's delivery stage through the shared mode executor: their IMs
// are acked with probability -im-ack-p, and unacked blocks fall back
// to email after -ack-timeout. The remaining tenants deliver through
// the flat simulated substrate.
//
// A -guaranteed-frac fraction of tenants subscribes at the guaranteed
// delivery tier: alerts that exhaust the in-memory attempt budget are
// handed to the retry outbox, whose envelopes are records in the hub's
// WAL, and redelivered with escalating backoff starting at
// -outbox-backoff, surviving restarts. Everyone else is best-effort — exhausted alerts
// are dropped but counted. The run report ends with a per-tier
// delivered/duplicated/lost/escalated table and the outbox summary.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dist"
	"simba/internal/dmode"
	"simba/internal/faults"
	"simba/internal/harness"
	"simba/internal/hub"
	"simba/internal/hub/hubtest"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/ops"
	"simba/internal/proxy"
	"simba/internal/stabilize"
	"simba/internal/wish"
)

func main() {
	hours := flag.Int("hours", 2, "virtual hours to run")
	hubMode := flag.Bool("hub", false, "run the multi-tenant hub experiment instead of the single-buddy day")
	users := flag.Int("users", 1000, "hub: hosted tenants")
	shards := flag.Int("shards", 8, "hub: shard-table size")
	alerts := flag.Int("alerts", 10000, "hub: alerts to submit")
	window := flag.Duration("window", 2*time.Millisecond, "hub: group-commit window")
	seed := flag.Int64("seed", 1, "hub: RNG seed")
	modeFrac := flag.Float64("mode-frac", 0.1, "hub: fraction of tenants with a personalized IM-then-email delivery mode")
	ackTimeout := flag.Duration("ack-timeout", 50*time.Millisecond, "hub: ack wait before a hosted mode block falls back")
	imAckP := flag.Float64("im-ack-p", 0.7, "hub: probability a hosted IM delivery is acknowledged")
	burst := flag.Int("burst", 1, "hub: submit alerts in SubmitBatch bursts of this size")
	guaranteedFrac := flag.Float64("guaranteed-frac", 0.05, "hub: fraction of tenants on the guaranteed delivery tier (outbox-backed)")
	outboxBackoff := flag.Duration("outbox-backoff", 50*time.Millisecond, "hub: base outbox redelivery backoff (doubles per round, capped)")
	adminAddr := flag.String("admin", "", "hub: serve the ops admin plane (healthz, shard health, tenant CRUD, rejuvenation) on this address (e.g. localhost:8025)")
	probePeriod := flag.Duration("probe-period", 0, "hub: shard watchdog probe cadence (0 = 1s default; supervision starts when -admin, -probe-period, or -rejuvenate-every is set)")
	rejuvenateEvery := flag.Duration("rejuvenate-every", 0, "hub: rolling shard rejuvenation period: each shard is renewed in place, one at a time, without draining or closing admission (0 = disabled)")
	linger := flag.Duration("linger", 0, "hub: keep serving this long after the workload (for poking the admin plane)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}
	if *hubMode {
		if err := runHub(hubParams{
			users: *users, shards: *shards, alerts: *alerts,
			window: *window, seed: *seed,
			modeFrac: *modeFrac, ackTimeout: *ackTimeout, imAckP: *imAckP,
			burst:          *burst,
			guaranteedFrac: *guaranteedFrac, outboxBackoff: *outboxBackoff,
			admin: *adminAddr, probePeriod: *probePeriod, rejuvenateEvery: *rejuvenateEvery,
			linger: *linger,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*hours); err != nil {
		log.Fatal(err)
	}
}

func run(hours int) error {
	tmp, err := os.MkdirTemp("", "simbad")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tb, err := harness.NewTestbed(harness.Options{TempDir: tmp, StartMDC: true})
	if err != nil {
		return err
	}
	tb.OnReceive = func(a *alert.Alert, at time.Time) {
		fmt.Printf("%s  buddy   received %q from %s\n", stamp(at), a.Subject, a.Source)
	}
	if err := tb.Start(); err != nil {
		return err
	}
	defer tb.Stop()
	fmt.Printf("%s  system  buddy online under MDC; user %s at the desk\n",
		stamp(tb.Clock.Now()), harness.UserName)

	// The election monitor from Section 2.1.
	site, err := tb.Web.CreateSite("cnn")
	if err != nil {
		return err
	}
	site.SetContent("election", "Florida recount: [Gore 2909135, Bush 2909142]", tb.Clock.Now())
	if err := tb.Proxy.AddMonitor(proxy.Monitor{
		Name: "florida-recount", URL: "cnn/election", PollEvery: time.Second,
		StartKeyword: "[", EndKeyword: "]",
		Source: "alert-proxy", Keywords: []string{"Election"}, Urgency: alert.UrgencyHigh,
	}); err != nil {
		return err
	}
	tb.Proxy.Start()

	// A critical home sensor and a tracked colleague.
	if _, err := tb.Home.AddSensor("basement-water", true); err != nil {
		return err
	}
	tb.Home.StartHeartbeats()
	tb.Wish.Track("yimin", harness.UserName)
	client, err := wish.NewClient(tb.Clock, tb.RNG, tb.Wish, "yimin", 2*time.Second)
	if err != nil {
		return err
	}
	client.MoveTo(10, 15)
	client.Start()
	defer client.Stop()

	// The day's script, spread across the run.
	total := time.Duration(hours) * time.Hour
	at := func(frac float64) time.Duration { return time.Duration(frac * float64(total)) }
	script := []struct {
		when time.Duration
		desc string
		do   func()
	}{
		{at(0.05), "recount number changes on cnn/election", func() {
			site.SetContent("election", "Florida recount: [Gore 2909135, Bush 2909537]", tb.Clock.Now())
		}},
		{at(0.15), "yimin walks to the east wing", func() { client.MoveTo(30, 15) }},
		{at(0.25), "basement water sensor fires", func() { _ = tb.Home.TriggerSensor("basement-water", "ON") }},
		{at(0.35), "IM service outage begins (4 minutes)", func() {
			tb.IM.Outage().Set(true, tb.Clock.Now())
			tb.IM.ForceLogoutAll()
		}},
		{at(0.35) + 4*time.Minute, "IM service back", func() { tb.IM.Outage().Set(false, tb.Clock.Now()) }},
		{at(0.5), "desktop assistant: high-importance email while away", func() {
			tb.Assistant.IncomingEmail("boss@corp.sim", "contract signature needed", alert.UrgencyHigh)
		}},
		{at(0.6), "buddy crashes (unhandled exception)", func() { tb.Buddy.InjectCrash() }},
		{at(0.75), "yimin leaves the building", func() { client.MoveTo(200, 200) }},
		{at(0.85), "water sensor clears", func() { _ = tb.Home.TriggerSensor("basement-water", "OFF") }},
	}
	for _, ev := range script {
		ev := ev
		tb.Clock.AfterFunc(ev.when, func() {
			fmt.Printf("%s  fault   %s\n", stamp(tb.Clock.Now()), ev.desc)
			ev.do()
		})
	}
	// The user goes idle halfway so the assistant activates.
	tb.Clock.AfterFunc(at(0.45), func() {
		fmt.Printf("%s  user    steps away from the desktop\n", stamp(tb.Clock.Now()))
	})

	// Run, reporting new receipts as they land.
	seen := 0
	step := 5 * time.Second
	for elapsed := time.Duration(0); elapsed < total; elapsed += step {
		tb.Clock.Advance(step)
		for _, r := range tb.User.Receipts()[seen:] {
			fmt.Printf("%s  user    %q via %s (end-to-end %v)\n",
				stamp(r.At), r.Alert.Subject, r.Channel, r.Latency.Round(time.Millisecond))
			seen++
		}
	}

	fmt.Printf("\n%s  system  run complete\n", stamp(tb.Clock.Now()))
	fmt.Printf("buddy counters: %s\n", tb.Buddy.Counters())
	fmt.Printf("MDC restarts: %d\n", tb.MDC.Restarts())
	fmt.Println("recovery journal:")
	for _, e := range tb.Journal.Entries() {
		fmt.Printf("  %s\n", e)
	}
	return nil
}

func stamp(t time.Time) string { return t.Format("15:04:05") }

// hubParams bundles the -hub run's flags.
type hubParams struct {
	users, shards, alerts int
	window                time.Duration
	seed                  int64
	modeFrac              float64
	ackTimeout            time.Duration
	imAckP                float64
	burst                 int
	guaranteedFrac        float64
	outboxBackoff         time.Duration
	admin                 string
	probePeriod           time.Duration
	rejuvenateEvery       time.Duration
	linger                time.Duration
}

// runHub hosts N tenants behind a K-way sharded hub and drives a
// portal-style workload through it, printing the capacity figures the
// hosted deployment is sized by: alerts/s, fsyncs per alert, commit
// batch size, the per-stage latency split (queue wait | route |
// deliver), delivery-stage concurrency, admission rejects, and the
// per-channel delivery split. A -mode-frac fraction of tenants executes
// a personalized IM-then-email delivery mode through the shared
// executor; the rest use the flat simulated substrate.
func runHub(p hubParams) error {
	users, shards, alerts := p.users, p.shards, p.alerts
	if users <= 0 || shards <= 0 || alerts <= 0 {
		return fmt.Errorf("simbad: -users, -shards, and -alerts must be positive")
	}
	if p.modeFrac < 0 || p.modeFrac > 1 || p.imAckP < 0 || p.imAckP > 1 {
		return fmt.Errorf("simbad: -mode-frac and -im-ack-p must be in [0,1]")
	}
	if p.guaranteedFrac < 0 || p.guaranteedFrac > 1 {
		return fmt.Errorf("simbad: -guaranteed-frac must be in [0,1]")
	}
	if p.burst < 1 {
		return fmt.Errorf("simbad: -burst must be >= 1")
	}
	tmp, err := os.MkdirTemp("", "simbad-hub")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	clk := clock.NewReal()
	rng := dist.NewRNG(p.seed)
	sink := hubtest.NewSimSink(rng.Fork("substrate"), shards, 0.01)

	// Simulated IM + email channels for the mode-carrying tenants: an
	// IM send is acked with probability imAckP (the ack arrives shortly
	// after through the hub's ack intake); unacked blocks fall back to
	// email after -ack-timeout. Per-shard forked RNGs, as in SimSink.
	var h *hub.Hub
	var imSeq atomic.Uint64
	imRNGs := make([]*dist.RNG, shards)
	for i := range imRNGs {
		imRNGs[i] = rng.Fork(fmt.Sprintf("sim-im-shard-%d", i))
	}
	channels := core.NewChannels().
		Register(addr.TypeSink, sink).
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			seq := imSeq.Add(1)
			if imRNGs[req.Shard%len(imRNGs)].Bool(p.imAckP) {
				handle := req.To
				go func() {
					time.Sleep(time.Millisecond)
					h.HandleIncoming(im.Message{From: handle, Text: core.AckText(seq)})
				}()
			}
			return core.SendResult{Seq: seq}, nil
		})).
		Register(addr.TypeEmail, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			return core.SendResult{Confirmed: true}, nil
		}))

	// A bounded journal: the supervision checks and the replay paths all
	// write here, and a lingering hub must not grow it without bound.
	journal := faults.NewRing(4096)
	h, err = hub.New(hub.Config{
		Clock:         clk,
		Channels:      channels,
		Journal:       journal,
		AckTimeout:    p.ackTimeout,
		WALPath:       filepath.Join(tmp, "hub.wal"),
		Shards:        shards,
		CommitWindow:  p.window,
		RNG:           rng,
		OutboxBackoff: p.outboxBackoff,
	})
	if err != nil {
		return err
	}
	modeUsers := int(p.modeFrac * float64(users))
	guaranteedUsers := int(p.guaranteedFrac * float64(users))
	for i := 0; i < users; i++ {
		user := fmt.Sprintf("user-%d", i)
		b, err := h.AddUser(user)
		if err != nil {
			return err
		}
		b.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
		b.Pipeline().Aggregator.Map("stocks", "Investment")
		if i < guaranteedUsers {
			if err := b.SetTier(core.TierGuaranteed); err != nil {
				return err
			}
		}
		if i < modeUsers {
			profile, err := core.NewProfile(user)
			if err != nil {
				return err
			}
			for _, a := range []addr.Address{
				{Type: addr.TypeIM, Name: "Pager IM", Target: user + "@im.sim", Enabled: true},
				{Type: addr.TypeEmail, Name: "Work email", Target: user + "@mail.sim", Enabled: true},
			} {
				if err := profile.Addresses().Register(a); err != nil {
					return err
				}
			}
			// Block timeout 0: Config.AckTimeout bounds the ack wait.
			if err := profile.DefineMode(dmode.IMThenEmail("Pager IM", "Work email", 0)); err != nil {
				return err
			}
			b.SetProfile(profile)
			if err := b.Subscribe("Investment", "IMThenEmail"); err != nil {
				return err
			}
		}
	}
	if err := h.Start(); err != nil {
		return err
	}
	fmt.Printf("hub: hosting %d users on %d shards (queue depth %d, commit window %v, %d mode tenants, %d guaranteed-tier, ack timeout %v, outbox backoff %v)\n",
		users, shards, hub.DefaultQueueDepth, p.window, modeUsers, guaranteedUsers, p.ackTimeout, p.outboxBackoff)

	// Supervision plane: one stabilizer running each shard's progress
	// watchdog, the resource invariants and optional rolling
	// rejuvenation. On whenever any self-management flag asks for it, so
	// a bare -hub run keeps the zero-overhead hot path.
	var sup *stabilize.Stabilizer
	if p.admin != "" || p.probePeriod > 0 || p.rejuvenateEvery > 0 {
		sup, err = h.Supervise(hub.SuperviseConfig{
			Period:          p.probePeriod,
			RejuvenateEvery: p.rejuvenateEvery,
		})
		if err != nil {
			return err
		}
		defer sup.Stop()
		fmt.Printf("supervision: probing %d shards every %v, rejuvenate-every %v\n",
			shards, cmp.Or(p.probePeriod, hub.DefaultCheckPeriod), p.rejuvenateEvery)
	}
	if p.admin != "" {
		admin, err := ops.NewServer(ops.Config{Hub: h, Supervisor: sup})
		if err != nil {
			return err
		}
		bound, err := admin.Listen(p.admin)
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Printf("admin: listening on http://%s (GET /healthz /shards /users, POST /rejuvenate /shards/{id}/restart, DELETE /users/{user})\n", bound)
	}

	workers := 32
	if workers > alerts {
		workers = alerts
	}
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, workers) // each worker sends at most one error
	// Each worker owns a contiguous range of the alert index space and
	// offers it in SubmitBatch bursts; overloaded entries retry after
	// the hint, and the first other error ends the run (every worker
	// stops at its next burst once errc holds one).
	per := (alerts + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			burst := make([]hub.Submission, 0, p.burst)
			var over *hub.OverloadError // hoisted: errors.As would move a per-entry one to the heap
			for i := lo; i < hi && len(errc) == 0; i += p.burst {
				burst = burst[:0]
				for k := i; k < min(i+p.burst, hi); k++ {
					burst = append(burst, hub.Submission{
						User: fmt.Sprintf("user-%d", k%users),
						Alert: &alert.Alert{
							ID:       fmt.Sprintf("a-%d", k),
							Source:   "portal",
							Keywords: []string{"stocks"},
							Subject:  "quote update",
							Urgency:  alert.UrgencyNormal,
							Created:  clk.Now(),
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
							errc <- err
							return
						}
					}
					if burst = retry; len(burst) > 0 {
						time.Sleep(hint)
					}
				}
			}
		}(w*per, min((w+1)*per, alerts))
	}
	wg.Wait()
	if p.linger > 0 {
		fmt.Printf("lingering %v for the admin plane...\n", p.linger)
		time.Sleep(p.linger)
	}
	// Stop self-management before draining, and wait for it: a
	// rejuvenation or restart still inside a check would race the drain.
	if sup != nil {
		sup.Stop()
		sup.Wait()
	}
	if err := h.Drain(); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	default:
	}
	elapsed := time.Since(start)

	st := h.Stats()
	c := h.Counters()
	fmt.Printf("\nsubmitted %d alerts in %v (%.0f alerts/s)\n",
		alerts, elapsed.Round(time.Millisecond), float64(alerts)/elapsed.Seconds())
	w := st.WAL
	fmt.Printf("WAL: %d appends over %d fsyncs — %.1f records/fsync, %.2f fsyncs/alert (%d bought by DONEs alone, %d DONEs unflushed)\n",
		st.Appends, st.Syncs, st.MeanBatch, float64(st.Syncs)/float64(alerts), w.WaiterlessSyncs, w.UnflushedDones)
	fmt.Printf("WAL segments: %d live (created %d, replayed %d at start), %d checkpoints (gen %d), %.1f MB compacted, %d records retired, %.1f MB on disk\n",
		w.Segments, w.SegmentsCreated, w.SegmentsReplayed, w.Checkpoints, w.CheckpointGen,
		float64(w.CompactedBytes)/(1<<20), w.Retired, float64(w.DiskBytes)/(1<<20))
	fmt.Printf("fsync latency (µs): %s\n", w.FsyncLatency)
	fmt.Printf("commit batch sizes (records): %s\n", w.CommitBatches)
	fmt.Printf("staged ingest batch sizes (alerts): %s\n", w.StagedBatches)
	stages := h.Stages()
	fmt.Printf("stage split: admission p50 %v / p99 %v | queue-wait p50 %v / p99 %v | route p50 %v / p99 %v | deliver p50 %v / p99 %v\n",
		stages.Admission.P50.Round(time.Microsecond), stages.Admission.P99.Round(time.Microsecond),
		stages.QueueWait.P50.Round(time.Microsecond), stages.QueueWait.P99.Round(time.Microsecond),
		stages.Route.P50.Round(time.Microsecond), stages.Route.P99.Round(time.Microsecond),
		stages.Deliver.P50.Round(time.Microsecond), stages.Deliver.P99.Round(time.Microsecond))
	fmt.Printf("delivered %d, simulated drops %d, delivery retries %d, undeliverable %d, overload rejects %d, duplicates %d\n",
		c.Get("delivered"), sink.Dropped(), c.Get("delivery-retries"), c.Get("undeliverable"),
		c.Get("rejects-overload"), c.Get("duplicates"))
	fmt.Printf("delivered by channel: IM %d, SMS %d, email %d, flat substrate %d\n",
		st.DeliveredByChannel[addr.TypeIM], st.DeliveredByChannel[addr.TypeSMS],
		st.DeliveredByChannel[addr.TypeEmail], st.DeliveredByChannel[addr.TypeSink])
	fmt.Printf("delivery tiers:\n")
	fmt.Printf("  %-12s %10s %11s %6s %10s\n", "tier", "delivered", "duplicated", "lost", "escalated")
	for _, ts := range st.Tiers {
		fmt.Printf("  %-12s %10d %11d %6d %10d\n",
			ts.Tier, ts.Delivered, ts.Duplicated, ts.Lost, ts.Escalated)
	}
	fmt.Printf("outbox: %d handoffs, %d redelivered (%d failed rounds, %d escalations), %d dropped, %d still pending\n",
		st.OutboxHandoffs, st.Outbox.Redelivered, st.Outbox.Rounds, st.Outbox.Escalated, st.Outbox.Dropped, st.Outbox.Pending)
	for _, s := range st.Shards {
		fmt.Printf("  shard %d: gen %d (%d restarts, %d rejuvenations), peak queue depth %d, peak concurrent sends %d\n",
			s.Shard, s.Generation, s.Restarts, s.Rejuvenations, s.PeakDepth, s.PeakInFlight)
	}
	if sup != nil {
		fmt.Printf("supervision:\n")
		fmt.Printf("  %-24s %8s %9s %6s %12s\n", "check", "runs", "failures", "heals", "escalations")
		for _, cs := range sup.Stats() {
			fmt.Printf("  %-24s %8d %9d %6d %12d\n", cs.Name, cs.Executions, cs.Failures, cs.Heals, cs.Escalations)
		}
		fmt.Printf("  journal: %d entries (%d rejuvenations, %d daemon restarts, %d unrecovered)\n",
			journal.Len(), journal.Count(faults.KindRejuvenation),
			journal.Count(faults.KindDaemonRestart), journal.Count(faults.KindUnrecovered))
	}
	return nil
}
