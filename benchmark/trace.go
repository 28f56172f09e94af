package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simba/internal/hub"
	"simba/internal/metrics"
)

// tracer records one traced episode: spans around the benchmark's own
// calls into each layer, kept in memory in flat per-alert and per-burst
// arrays and written out when the run ends, plus the hub's public
// accessors read once per incarnation. Measured (untraced) episodes
// carry a nil tracer and pay none of this.
//
// Span tree of one alert (parent → child):
//
//	alert
//	├─ gen.wait          burst due → SubmitBatchAsync called (open loop)
//	├─ hub.submit_call   inside SubmitBatchAsync
//	├─ hub.commit_wait   call returned → onCommitted fired
//	├─ hub.route_queue   onCommitted → the channel's first Send for it
//	└─ core.deliver      first Send → confirmation
//	   ├─ core.channel_send  inside the benchmark's Send
//	   └─ core.ack_wait      IM Send → acknowledgement handed to the hub
type tracer struct {
	rec *recorder

	firstSendAt []atomic.Int64
	sendNs      []atomic.Int64
	ackNs       []int64
	burstOf     []int32
	bursts      []burstSpan
	nBursts     atomic.Int32

	hub         atomic.Pointer[hub.Hub]
	stopSampler chan struct{}
	samplerDone sync.WaitGroup
	acksPeak    int
	goroutines  int

	vals map[string]float64
	wal  walTotals
}

type burstSpan struct {
	due, call, ret, committed int64
}

// walTotals accumulates the journal and hub accessors over the hub
// incarnations of one episode.
type walTotals struct {
	syncs, appends             int64
	stagedCount, stagedSum     int64
	commitWait, fsync          metrics.HistogramSnapshot
	diskBytesEnd               int64
	checkpoints, segsCreated   int64
	segsReplayed, corrupt      int64
	peakDepth, peakInflight    int
	stages                     hub.StageLatencies
	obRedelivered, obEscalated int64
	obPendingEnd               int
}

func newTracer() *tracer { return &tracer{vals: make(map[string]float64)} }

func (t *tracer) begin(r *recorder) {
	n := len(r.in.alerts)
	t.rec = r
	t.firstSendAt = make([]atomic.Int64, n)
	t.sendNs = make([]atomic.Int64, n)
	t.ackNs = make([]int64, n)
	t.burstOf = make([]int32, n)
	for i := range t.burstOf {
		t.burstOf[i] = -1
	}
	// One span per async burst; each phase can end on a short burst per
	// submitter.
	t.bursts = make([]burstSpan, n/4+submitters*len(r.in.phases)+16)
	t.stopSampler = make(chan struct{})
	t.samplerDone.Add(1)
	go t.sample()
}

// sample polls the gauges that have no peak accessor.
func (t *tracer) sample() {
	defer t.samplerDone.Done()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stopSampler:
			return
		case <-tick.C:
			if h := t.hub.Load(); h != nil {
				t.acksPeak = max(t.acksPeak, h.Executor().Acks().Pending())
			}
			t.goroutines = max(t.goroutines, runtime.NumGoroutine())
		}
	}
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

func (t *tracer) burst(idx []int32, due, call int64) int {
	b := int(t.nBursts.Add(1)) - 1
	if b >= len(t.bursts) {
		return -1
	}
	t.bursts[b] = burstSpan{due: due, call: call}
	for _, i := range idx {
		t.burstOf[i] = int32(b)
	}
	return b
}

func (t *tracer) returned(b int, at int64) {
	if b >= 0 {
		t.bursts[b].ret = at
	}
}

func (t *tracer) committed(b int, at int64) {
	if b >= 0 {
		t.bursts[b].committed = at
	}
}

func (t *tracer) firstSend(i int, at int64) {
	if i >= 0 {
		t.firstSendAt[i].CompareAndSwap(0, at)
	}
}

func (t *tracer) sendTime(i int, d int64) {
	if i >= 0 {
		t.sendNs[i].Add(d)
	}
}

func (t *tracer) ackTime(i int, d int64) { t.ackNs[i] = d }

// harvest reads one incarnation's accessors before it goes away.
func (t *tracer) harvest(h *hub.Hub, st hub.Stats) {
	w := &t.wal
	w.syncs += st.Syncs
	w.appends += st.Appends
	w.stagedCount += st.WAL.StagedBatches.Count
	w.stagedSum += st.WAL.StagedBatches.Sum
	w.commitWait = w.commitWait.Merge(st.WAL.CommitWait)
	w.fsync = w.fsync.Merge(st.WAL.FsyncLatency)
	w.diskBytesEnd = st.WAL.DiskBytes
	w.checkpoints += st.WAL.Checkpoints
	w.segsCreated += st.WAL.SegmentsCreated
	w.segsReplayed += int64(st.WAL.SegmentsReplayed)
	w.corrupt += st.WAL.CorruptRecords
	for _, sh := range st.Shards {
		w.peakDepth = max(w.peakDepth, sh.PeakDepth)
		w.peakInflight = max(w.peakInflight, sh.PeakInFlight)
	}
	// Keep the incarnation that admitted the most: the last one of a
	// kill/recover episode only replays.
	if st := h.Stages(); st.Admission.Count >= w.stages.Admission.Count {
		w.stages = st
	}
	if st.Outbox != nil {
		w.obRedelivered += st.Outbox.Redelivered
		w.obEscalated += st.Outbox.Escalated
		w.obPendingEnd = st.Outbox.Pending
	}
}

// histQuantile returns the upper bound of the power-of-two bucket
// holding the q-quantile: coarse, but the hub's own view.
func histQuantile(s metrics.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > rank {
			return float64(b.Le)
		}
	}
	return float64(s.Max)
}

func medianNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sortInt64(xs)
	return float64(xs[len(xs)/2])
}

// finish stops the sampler and reduces the spans and accessors to the
// traced per-layer metrics of this episode.
func (t *tracer) finish(e *episode, s *sample) map[string]float64 {
	close(t.stopSampler)
	t.samplerDone.Wait()
	r := t.rec
	m := t.vals

	nb := min(int(t.nBursts.Load()), len(t.bursts))
	var call, wait []int64
	for _, b := range t.bursts[:nb] {
		if b.ret == 0 || b.committed == 0 {
			continue
		}
		call = append(call, b.ret-b.call)
		wait = append(wait, max(b.committed-b.ret, 0))
	}
	m["hub.submit_call_us"] = medianNs(call) / 1e3
	m["hub.commit_wait_us"] = medianNs(wait) / 1e3

	var route, ack []int64
	var sendSum, sendN int64
	for i := range r.admitAt {
		first := t.firstSendAt[i].Load()
		if first == 0 || r.admitAt[i] == 0 {
			continue
		}
		route = append(route, max(first-r.admitAt[i], 0))
		sendSum += t.sendNs[i].Load()
		sendN++
		if t.ackNs[i] > 0 {
			ack = append(ack, t.ackNs[i])
		}
	}
	m["hub.route_queue_us"] = medianNs(route) / 1e3
	m["core.channel_send_us"] = float64(sendSum) / float64(max(sendN, 1)) / 1e3
	m["core.ack_wait_us"] = medianNs(ack) / 1e3
	m["core.acks_pending_peak"] = float64(t.acksPeak)

	w := &t.wal
	m["plog.fsyncs"] = float64(w.syncs)
	m["plog.records_per_fsync"] = float64(w.appends) / float64(max(w.syncs, 1))
	m["plog.staged_batch_mean"] = float64(w.stagedSum) / float64(max(w.stagedCount, 1))
	m["plog.commit_wait_p50_us"] = histQuantile(w.commitWait, 0.50)
	m["plog.commit_wait_p95_us"] = histQuantile(w.commitWait, 0.95)
	m["plog.fsync_p50_us"] = histQuantile(w.fsync, 0.50)
	m["plog.disk_bytes_end"] = float64(w.diskBytesEnd)
	m["plog.checkpoints"] = float64(w.checkpoints)
	m["plog.segments_created"] = float64(w.segsCreated)
	m["plog.segments_replayed"] = float64(w.segsReplayed)
	m["plog.corrupt_records"] = float64(w.corrupt)

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	m["hub.stage_admission_p50_us"] = us(w.stages.Admission.P50)
	m["hub.stage_queuewait_p50_us"] = us(w.stages.QueueWait.P50)
	m["hub.stage_route_p50_us"] = us(w.stages.Route.P50)
	m["hub.stage_deliver_p50_us"] = us(w.stages.Deliver.P50)
	m["hub.peak_depth"] = float64(w.peakDepth)
	m["hub.peak_inflight"] = float64(w.peakInflight)
	m["hub.new_start_ms"] = median(e.newStart)
	m["hub.replayed"] = float64(e.replayed)
	c := e.counters
	m["hub.overload_refusals"] = float64(c["rejects-overload"])
	m["hub.rejected"] = float64(c["rejected"])
	m["hub.delivered_im"] = float64(c["delivered-via-IM"])
	m["hub.delivered_email"] = float64(c["delivered-via-EM"])
	m["hub.delivered_sink"] = float64(c["delivered-via-SINK"])
	m["hub.outbox_handoffs"] = float64(c["outbox-handoffs"])
	m["hub.besteffort_dropped"] = float64(c["lost-tier-best-effort"])
	m["outbox.redelivered"] = float64(w.obRedelivered)
	m["outbox.escalated"] = float64(w.obEscalated)
	m["outbox.pending_end"] = float64(w.obPendingEnd)

	late := append([]int64(nil), s.gen.lateNs...)
	sortInt64(late)
	m["gen.late_p95_us"] = quantileMs(late, 0.95) * 1e3
	m["gen.late_max_ms"] = quantileMs(late, 1)
	m["gen.offered_alerts"] = float64(s.gen.offered)
	m["gen.overload_retries"] = float64(s.gen.overloadRetries)
	m["gen.admit_p99_ms"] = s.admit.p99
	m["gen.deliver_p99_ms"] = s.deliver.p99
	m["gen.deliver_max_ms"] = s.deliver.max
	m["gen.backlog_end"] = float64(s.gen.backlogEnd)
	m["runtime.goroutines_peak"] = float64(t.goroutines)
	return m
}

// traceFile is what a traced run leaves in out/trace-<workload>.json:
// the span tree of a sample of alerts from the last traced episode, and
// the per-layer metrics derived from all of them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   map[string]float64 `json:"layer_metrics"`
	Alerts   []traceAlert       `json:"alerts"`
}

type traceAlert struct {
	Key   string      `json:"key"`
	Spans []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// traceAlerts caps how many alerts' span trees a trace file carries.
const traceAlerts = 500

// write dumps the spans of the first traceAlerts alerts. Times are
// microseconds since the episode began.
func (t *tracer) write(path, workload string, seed int64, layers map[string]float64) error {
	r := t.rec
	f := traceFile{Workload: workload, Seed: seed, Layers: layers}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i := 0; i < len(r.admitAt) && len(f.Alerts) < traceAlerts; i++ {
		b := t.burstOf[i]
		first := t.firstSendAt[i].Load()
		if b < 0 || int(b) >= len(t.bursts) || first == 0 || r.admitAt[i] == 0 || r.deliverAt[i] == 0 {
			continue
		}
		bs := t.bursts[b]
		end := max(r.deliverAt[i], first)
		if t.ackNs[i] > 0 {
			end = first + t.ackNs[i]
		}
		a := traceAlert{Key: r.in.users[r.in.user[i]] + "/" + r.in.alerts[i].DedupKey()}
		span := func(name, parent string, from, to int64) {
			a.Spans = append(a.Spans, traceSpan{Name: name, Parent: parent, StartUs: us(from), DurUs: us(max(to-from, 0))})
		}
		span("alert", "", bs.due, end)
		span("gen.wait", "alert", bs.due, bs.call)
		span("hub.submit_call", "alert", bs.call, bs.ret)
		span("hub.commit_wait", "alert", bs.ret, r.admitAt[i])
		span("hub.route_queue", "alert", r.admitAt[i], first)
		span("core.deliver", "alert", first, end)
		span("core.channel_send", "core.deliver", first, first+t.sendNs[i].Load())
		if t.ackNs[i] > 0 {
			span("core.ack_wait", "core.deliver", first, first+t.ackNs[i])
		}
		f.Alerts = append(f.Alerts, a)
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
