package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"simba/internal/addr"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/hub"
	"simba/internal/mab"
)

// sample is what one episode measured: the end-to-end readings by
// metric name, the oracle's verdict, and (traced episodes only) the
// per-layer readings.
type sample struct {
	vals    map[string]float64
	admit   latencies // stamp → acknowledged
	deliver latencies // stamp → delivered

	attempted int64
	failed    int64
	problems  []string
	// invalid marks an episode whose generator, not the hub, missed its
	// own rules (acked late, let a backlog build); it is re-run, never
	// kept.
	invalid string

	gen   genStats
	layer map[string]float64
}

// latencies digests one episode's per-alert latencies, in milliseconds.
type latencies struct{ p50, p95, p99, max float64 }

// digest sorts ns in place and reads the quantiles off it.
func digest(ns []int64) latencies {
	sortInt64(ns)
	return latencies{quantileMs(ns, 0.50), quantileMs(ns, 0.95), quantileMs(ns, 0.99), quantileMs(ns, 1)}
}

// episode is one fresh hub on one fresh WAL directory, driven through
// set-up, the timed load, a restart, and the oracle.
type episode struct {
	sp  spec
	in  *inputs
	dir string
	rec *recorder
	tr  *tracer

	hub   *hub.Hub
	ch    *channels
	calls [submitters]uint64 // submit calls made so far, per submitter

	// Accumulated across the hub incarnations of a kill/recover
	// episode, read off each incarnation before it goes away.
	syncs     int64
	compacted int64
	counters  map[string]int64
	recovery  []float64
	loadNs    int64
	cpu       time.Duration // process CPU at the end of the timed section
	mallocs   uint64        // runtime mallocs at the end of the timed section
	segBytes  int64         // segment file bytes at the end of the timed section
	newStart  []float64
	replayed  int64
}

// hubConfig is the fixed system under test: simbad's shipped shard
// count and commit window, every other knob at its default, so a later
// change to a default shows here. Only the modes workload adds the ack
// timeout and the outbox.
func (e *episode) hubConfig() hub.Config {
	cfg := hub.Config{
		Clock:        clock.NewReal(),
		Channels:     e.ch.registry(e.sp.modes),
		WALPath:      filepath.Join(e.dir, "hub.wal"),
		Shards:       8,
		CommitWindow: 2 * time.Millisecond,
	}
	if e.sp.modes {
		cfg.AckTimeout = ackTimeout
		cfg.OutboxPath = filepath.Join(e.dir, "hub.outbox")
	}
	return cfg
}

// open brings up one hub incarnation on e.dir: hub.New (which recovers
// whatever the directory holds), every tenant, Start (which replays).
func (e *episode) open() error {
	e.ch = newChannels(e.rec)
	h, err := hub.New(e.hubConfig())
	if err != nil {
		e.ch.stop()
		return err
	}
	e.hub, e.ch.hub = h, h
	if e.tr != nil {
		e.tr.hub.Store(h)
	}
	for u, name := range e.in.users {
		bd, err := h.AddUser(name)
		if err != nil {
			return err
		}
		bd.Pipeline().Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
		bd.Pipeline().Aggregator.Map("stocks", "Investment")
		if !e.sp.modes {
			continue
		}
		p, err := core.NewProfile(name)
		if err != nil {
			return err
		}
		for _, a := range []addr.Address{
			{Type: addr.TypeIM, Name: "Pager IM", Target: name + "@im", Enabled: true},
			{Type: addr.TypeEmail, Name: "Work email", Target: name + "@mail", Enabled: true},
		} {
			if err := p.Addresses().Register(a); err != nil {
				return err
			}
		}
		// Zero block timeout: the hub substitutes Config.AckTimeout.
		if err := p.DefineMode(dmode.IMThenEmail("Pager IM", "Work email", 0)); err != nil {
			return err
		}
		bd.SetProfile(p)
		tier := core.TierBestEffort
		if guaranteed(int32(u)) {
			tier = core.TierGuaranteed
		}
		if err := bd.SubscribeTier("Investment", "IMThenEmail", tier); err != nil {
			return err
		}
	}
	return h.Start()
}

// journalTotals reads an incarnation's fsync count and journal bytes
// (ingest WAL and outbox together): bytes still on disk, and bytes
// compacted away.
func journalTotals(st hub.Stats) (syncs, disk, compacted int64) {
	syncs, disk, compacted = st.Syncs, st.WAL.DiskBytes, st.WAL.CompactedBytes
	if ob := st.Outbox; ob != nil {
		syncs += ob.Log.Syncs
		disk += ob.Log.DiskBytes
		compacted += ob.Log.CompactedBytes
	}
	return syncs, disk, compacted
}

// harvest adds the closing incarnation's counts to the episode's
// totals; call it after Drain (or just before Kill).
func (e *episode) harvest() {
	st := e.hub.Stats()
	syncs, _, compacted := journalTotals(st)
	e.syncs += syncs
	e.compacted += compacted
	if e.counters == nil {
		e.counters = make(map[string]int64)
	}
	for k, v := range e.hub.Counters().Snapshot() {
		e.counters[k] += v
	}
	if e.tr != nil {
		e.tr.harvest(e.hub, st)
	}
}

// endTimed closes the CPU and allocation accounts of the timed section;
// the clean restarts that follow a non-crash workload are not part of it.
func (e *episode) endTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.cpu, e.mallocs = cpuTime(), ms.Mallocs
	e.segBytes = segmentBytes(e.dir)
}

// warm pushes a few alerts through the whole path so pools, lanes and
// segment files exist before the timed section.
func (e *episode) warm() error {
	subs := make([]hub.Submission, len(e.in.warm))
	for i := range subs {
		subs[i] = hub.Submission{User: e.in.users[i%tenants], Alert: &e.in.warm[i]}
	}
	for _, err := range e.hub.SubmitBatch(subs) {
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.rec.warmed.Load() < int64(len(subs)) {
		if time.Now().After(deadline) {
			return errors.New("warm-up alerts were not delivered")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// quiesce waits until the hub owes nothing: every ingest WAL entry
// retired, the outbox empty, and redelivered envelopes (the seed says
// how many this incarnation will see) retired from the outbox journal.
// Pending alone is not enough: the outbox pops an envelope off its heap
// for the length of a round, and a Drain that lands before the round's
// mark leaves the envelope to be redelivered by the next incarnation.
func (e *episode) quiesce(redelivered int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ob := e.hub.Outbox()
		if e.hub.WALBacklog() == 0 && (ob == nil || ob.Pending() == 0 && ob.Redelivered() >= redelivered) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hub did not quiesce: WAL backlog %d", e.hub.WALBacklog())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// expectDelivered counts the alerts in [lo,hi) the channels will
// confirm: all but the classifier's rejects and the best-effort
// classHard alerts, which are counted drops.
func (e *episode) expectDelivered(lo, hi int) int64 {
	var n int64
	for i := lo; i < hi; i++ {
		switch c := e.in.class[i]; {
		case c == classRejected:
		case c == classHard && !guaranteed(e.in.user[i]):
		default:
			n++
		}
	}
	return n
}

// runEpisode runs episode number ep of the workload and returns its
// sample. Errors are harness failures (cannot open the hub, a wait
// timed out), not measurements.
func runEpisode(sp spec, seed int64, ep int, workDir string, tr *tracer) (*sample, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", sp.name, ep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: inputs from the seed, the hub, its tenants, a warm-up.
	t0 := time.Now()
	in := generate(sp, seed, ep)
	e := &episode{sp: sp, in: in, dir: dir, tr: tr}
	e.rec = newRecorder(in, tr)
	if tr != nil {
		tr.begin(e.rec)
	}
	if err := e.open(); err != nil {
		return nil, fmt.Errorf("opening hub: %w", err)
	}
	if err := e.warm(); err != nil {
		return nil, err
	}
	if err := e.quiesce(0); err != nil {
		return nil, err
	}
	runtime.GC()
	s := &sample{attempted: int64(len(in.alerts))}
	setup := time.Since(t0).Seconds()

	// Timed section. The warm-up's fsyncs and journal bytes are not the
	// workload's.
	warmSyncs, warmBytes, _ := journalTotals(e.hub.Stats())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var err error
	if sp.cycles > 0 {
		err = e.runCycles(s)
	} else {
		err = e.runLoad(s)
	}
	if err != nil {
		return nil, err
	}

	e.judge(s)
	n := float64(len(in.alerts))
	s.vals = map[string]float64{
		"setup_s":                 setup,
		"throughput_alerts_per_s": n / (float64(e.loadNs) / 1e9),
		"admit_p50_ms":            s.admit.p50,
		"admit_p95_ms":            s.admit.p95,
		"deliver_p50_ms":          s.deliver.p50,
		"deliver_p95_ms":          s.deliver.p95,
		"recovery_s":              median(e.recovery),
		"cpu_us_per_alert":        float64((e.cpu - cpu0).Microseconds()) / n,
		"allocs_per_alert":        float64(e.mallocs-ms0.Mallocs) / n,
		"fsyncs_per_alert":        float64(e.syncs-warmSyncs) / n,
		"wal_bytes_per_alert":     float64(e.segBytes+e.compacted-warmBytes) / n,
	}
	if tr != nil {
		s.layer = tr.finish(e, s)
	}
	return s, nil
}

// runLoad is the timed section of the three non-crash workloads: the
// generator, then everything the hub still owes, then Drain — and a
// clean restart on the directory the workload left, timed as
// recovery_s.
func (e *episode) runLoad(s *sample) error {
	ph := e.in.phases[0]
	done := e.rec.await(e.expectDelivered(ph.lo, ph.hi))
	start := time.Now()
	if e.sp.open {
		e.openLoop(ph, &s.gen)
	} else {
		e.closedLoop(ph, &s.gen)
	}
	offered := time.Now()
	if err := waitDone(done, "load"); err != nil {
		return err
	}
	var handoffs int64
	for i := ph.lo; i < ph.hi && e.sp.modes; i++ {
		if e.in.class[i] == classHard && guaranteed(e.in.user[i]) {
			handoffs++
		}
	}
	if err := e.quiesce(handoffs); err != nil {
		return err
	}
	tail := time.Since(offered)
	drain0 := time.Now()
	if err := e.hub.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	e.loadNs = int64(time.Since(start))
	e.endTimed()
	e.harvest()
	e.ch.stop()
	if e.tr != nil {
		e.tr.set("hub.drain_ms", float64(time.Since(drain0).Microseconds())/1e3)
		e.tr.set("outbox.drain_tail_ms", float64(tail.Microseconds())/1e3)
	}

	// Restart on the WAL this workload left behind, a few times. Nothing
	// is owed after a clean Drain, so this is the cost of reading the
	// journal back: open lanes, replay segments, find everything retired.
	for i := 0; i < e.sp.restarts; i++ {
		r0 := time.Now()
		if err := e.open(); err != nil {
			return fmt.Errorf("reopening hub: %w", err)
		}
		if err := e.quiesce(0); err != nil {
			return err
		}
		e.recovery = append(e.recovery, time.Since(r0).Seconds())
		if err := e.hub.Drain(); err != nil {
			return fmt.Errorf("drain after restart: %w", err)
		}
		e.ch.stop()
	}
	return nil
}

// runCycles is crash_recovery's timed section: cycles of load →
// retire → close the gate → get backlog alerts acked → Kill → recover.
// Halfway through, the hub checkpoints its WAL as a long-lived one
// would have, so later cycles recover from checkpoint + tail.
func (e *episode) runCycles(s *sample) error {
	var delivered int64
	for c := 0; c < e.sp.cycles; c++ {
		load, back := e.in.phases[2*c], e.in.phases[2*c+1]

		delivered += e.expectDelivered(load.lo, load.hi)
		done := e.rec.await(delivered)
		start := time.Now()
		e.closedLoop(load, &s.gen)
		if err := waitDone(done, "cycle load"); err != nil {
			return err
		}
		e.loadNs += int64(time.Since(start))
		if err := e.quiesce(0); err != nil {
			return err
		}
		if c == e.sp.cycles/2 {
			if err := e.hub.CheckpointWAL(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}

		// Acked but undelivered: the gate holds every Send, so these
		// alerts are durable, acknowledged to the sender, and owed.
		e.ch.gate.closed.Store(true)
		start = time.Now()
		e.closedLoop(back, &s.gen)
		e.loadNs += int64(time.Since(start))
		if got := e.rec.delivered.Load(); got != delivered {
			return fmt.Errorf("cycle %d: %d alerts passed a closed gate", c, got-delivered)
		}
		e.harvest()
		old, oldCh := e.hub, e.ch
		old.Kill()
		<-old.Stopped()
		close(oldCh.gate.kill)
		oldCh.stop()

		// recovery_s: the next incarnation, from hub.New on the killed
		// hub's WAL until the last owed alert reaches the channel.
		delivered += e.expectDelivered(back.lo, back.hi)
		done = e.rec.await(delivered)
		r0 := time.Now()
		if err := e.open(); err != nil {
			return fmt.Errorf("recovering hub: %w", err)
		}
		up := time.Since(r0)
		if err := waitDone(done, "recovery"); err != nil {
			return err
		}
		e.recovery = append(e.recovery, time.Since(r0).Seconds())
		e.newStart = append(e.newStart, float64(up.Microseconds())/1e3)
		e.replayed += e.hub.Counters().Get("replayed")
		if err := e.quiesce(0); err != nil {
			return err
		}
	}
	drain0 := time.Now()
	if err := e.hub.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	e.endTimed()
	if e.tr != nil {
		e.tr.set("hub.drain_ms", float64(time.Since(drain0).Microseconds())/1e3)
		e.tr.set("outbox.drain_tail_ms", 0)
	}
	e.harvest()
	e.ch.stop()
	return nil
}

func waitDone(done <-chan struct{}, what string) error {
	select {
	case <-done:
		return nil
	case <-time.After(90 * time.Second):
		return fmt.Errorf("%s: alerts still undelivered after 90 s", what)
	}
}
