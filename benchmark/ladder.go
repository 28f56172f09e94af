package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"simba/internal/addr"
	"simba/internal/alert"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/outbox"
	"simba/internal/plog"
	"simba/internal/timewheel"
)

// The layer ladder replays generated inputs straight into each layer's
// public functions, one goroutine unless stated, and reports the median
// of ladderReps repetitions. It says what a layer costs on its own; the
// traced run says what it costs inside the hub.
const ladderReps = 5

// perOp times reps repetitions of n calls to fn and returns the median
// nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	times := make([]float64, ladderReps)
	for r := range times {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		times[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(times)
}

// ladder runs every rung and returns the (L) per-layer metrics. scale
// divides the iteration counts (the smoke test runs at 200).
func ladder(seed int64, workDir string, scale int) (map[string]float64, error) {
	dir := filepath.Join(workDir, "ladder")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := func(full int) int { return max(full/scale, 8) }
	in := generate(spec{alerts: 4096, burst: 64}, seed, 0)
	alerts := in.alerts
	m := make(map[string]float64)

	// alert: the wire codec every ingest, WAL append and replay pays.
	buf := make([]byte, 0, 512)
	m["alert.append_wire_ns"] = perOp(n(100000), func(i int) {
		buf, _ = alerts[i%len(alerts)].AppendWire(buf[:0])
	})
	m["alert.append_dedupkey_ns"] = perOp(n(100000), func(i int) {
		buf = alerts[i%len(alerts)].AppendDedupKey(buf[:0])
	})
	wire := make([][]byte, len(alerts))
	for i := range alerts {
		w, err := alerts[i].MarshalText()
		if err != nil {
			return nil, err
		}
		wire[i] = w
	}
	var parsed alert.Alert
	m["alert.unmarshal_ns"] = perOp(n(100000), func(i int) {
		_ = parsed.UnmarshalText(wire[i%len(wire)])
	})

	// mab: one tenant's classify → aggregate → filter.
	pipe := mab.NewPipeline()
	pipe.Classifier.Accept(mab.SourceRule{Source: "portal", Extract: mab.ExtractNative})
	pipe.Aggregator.Map("stocks", "Investment")
	now := time.Now()
	m["mab.evaluate_ns"] = perOp(n(200000), func(i int) {
		pipe.Evaluate(&alerts[i%len(alerts)], now)
	})

	// timewheel: arm and cancel one wait, as every ack wait and retry does.
	wheel := timewheel.New(clock.NewReal(), timewheel.Options{})
	m["timewheel.after_release_ns"] = perOp(n(200000), func(int) {
		wheel.Release(wheel.After(time.Hour))
	})

	if err := ladderCore(m, alerts, n); err != nil {
		return nil, err
	}
	if err := ladderPlog(m, dir, alerts, wire, n); err != nil {
		return nil, err
	}
	if err := ladderOutbox(m, dir, alerts, n); err != nil {
		return nil, err
	}
	return m, nil
}

// ladderCore times the shared mode executor: the flat one-block mode
// over an instant channel, and an IM block whose acknowledgement
// arrives as soon as the executor waits for it.
func ladderCore(m map[string]float64, alerts []alert.Alert, n func(int) int) error {
	clk := clock.NewReal()
	acks := core.NewAcks(clk)
	sends := make(chan core.Send, 1)
	var imSeq uint64
	chans := core.NewChannels().
		Register(addr.TypeSink, core.ChannelFunc(func(core.Send) (core.SendResult, error) {
			return core.SendResult{Confirmed: true}, nil
		})).
		Register(addr.TypeIM, core.ChannelFunc(func(req core.Send) (core.SendResult, error) {
			imSeq++
			sends <- req
			return core.SendResult{Seq: imSeq}, nil
		}))
	exec, err := core.NewExecutor(clk, chans, acks)
	if err != nil {
		return err
	}
	reg := addr.NewRegistry("ladder")
	for _, a := range []addr.Address{
		{Type: addr.TypeSink, Name: "sink", Target: "sink", Enabled: true},
		{Type: addr.TypeIM, Name: "Pager IM", Target: "ladder@im", Enabled: true},
	} {
		if err := reg.Register(a); err != nil {
			return err
		}
	}
	flat := &dmode.Mode{Name: "Flat", Blocks: []dmode.Block{{Actions: []dmode.Action{{Address: "sink"}}}}}
	imMode := &dmode.Mode{Name: "IM", Blocks: []dmode.Block{{
		Timeout: dmode.Duration(time.Second), Actions: []dmode.Action{{Address: "Pager IM"}},
	}}}
	scr := core.NewScratch(timewheel.New(clk, timewheel.Options{}))
	ctx := core.DeliveryContext{User: "ladder"}
	var derr error
	m["core.deliver_flat_ns"] = perOp(n(50000), func(i int) {
		if _, err := exec.DeliverScratch(ctx, &alerts[i%len(alerts)], "", nil, reg, flat, scr); err != nil {
			derr = err
		}
	})

	// The acker plays the IM user: it answers a send the moment the
	// executor has registered its wait (an ack that beats the
	// registration would be consumed as a stray).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(0)
		for req := range sends {
			seq++
			for acks.Pending() == 0 {
				runtime.Gosched()
			}
			acks.HandleIncoming(im.Message{From: req.To, Text: core.AckText(seq)})
		}
	}()
	m["core.deliver_imack_us"] = perOp(n(10000), func(i int) {
		if _, err := exec.DeliverScratch(ctx, &alerts[i%len(alerts)], "", nil, reg, imMode, scr); err != nil {
			derr = err
		}
	}) / 1e3
	close(sends)
	wg.Wait()
	return derr
}

// ladderPlog times the journal alone, with the hub's commit window and
// checkpoint threshold: one-lane stage+commit at burst sizes 1 and 64
// (the paced and the burst ingest shape), two appenders over 1 and 8
// lanes (the WALLanes-default question), DONE staging, reopen and
// checkpoint.
func ladderPlog(m map[string]float64, dir string, alerts []alert.Alert, wire [][]byte, n func(int) int) error {
	opts := plog.GroupOptions{Window: 2 * time.Millisecond, Log: plog.Options{CheckpointEvery: 65536}}
	now := time.Now()
	key := func(run string, i int) string { return fmt.Sprintf("ladder\x1f%s-%07d", run, i) }

	one, err := plog.OpenLanes(filepath.Join(dir, "one.wal"), 1, opts)
	if err != nil {
		return err
	}
	lane := one.Lane(0)
	var perr error
	for _, size := range []int{1, 64} {
		entries := make([]plog.BatchEntry, size)
		next := 0
		run := fmt.Sprintf("b%d", size)
		m[fmt.Sprintf("plog.stage_commit_us.b%d", size)] = perOp(n(100), func(int) {
			for k := range entries {
				entries[k] = plog.BatchEntry{Key: key(run, next), Payload: wire[next%len(wire)], At: now}
				next++
			}
			c, err := lane.LogReceivedBatchStart(entries)
			if err == nil {
				err = c.Wait()
			}
			if err != nil {
				perr = err
			}
		}) / 1e3
	}
	if err := one.Close(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}

	for _, lanes := range []int{1, 8} {
		base := filepath.Join(dir, fmt.Sprintf("lanes%d.wal", lanes))
		ls, err := plog.OpenLanes(base, lanes, opts)
		if err != nil {
			return err
		}
		total := n(6400)
		rates := make([]float64, ladderReps)
		var mark []float64
		for r := range rates {
			run := fmt.Sprintf("l%dr%d", lanes, r)
			t := time.Now()
			var wg sync.WaitGroup
			var errs [2]error
			var markNs [2]float64
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					markNs[w], errs[w] = appendBursts(ls, run, w, total/2, wire, now)
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					_ = ls.Close()
					return err
				}
			}
			rates[r] = float64(total/2*2) / time.Since(t).Seconds()
			mark = append(mark, markNs[0], markNs[1])
		}
		m[fmt.Sprintf("plog.append_alerts_per_s.lanes%d", lanes)] = median(rates)
		if lanes == 8 {
			m["plog.mark_batch_ns_per_key"] = median(mark)
			// checkpoint_ms: a few thousand live records among the
			// retired ones, as a busy hub's lanes hold.
			for i := 0; i < n(4096); i++ {
				l := ls.Lane(i % lanes)
				c, err := l.LogReceivedBatchStart([]plog.BatchEntry{{Key: key("live", i), Payload: wire[i%len(wire)], At: now}})
				if err == nil && i >= n(4096)-lanes {
					err = c.Wait()
				}
				if err != nil {
					_ = ls.Close()
					return err
				}
			}
			t := time.Now()
			if err := ls.Checkpoint(); err != nil {
				_ = ls.Close()
				return err
			}
			m["plog.checkpoint_ms"] = float64(time.Since(t).Microseconds()) / 1e3
		}
		if err := ls.Close(); err != nil {
			return err
		}
		if lanes == 1 {
			// reopen_ms: read back everything the appenders wrote — no
			// checkpoint, so every segment replays.
			times := make([]float64, ladderReps)
			for r := range times {
				t := time.Now()
				re, err := plog.OpenLanes(base, lanes, opts)
				if err != nil {
					return err
				}
				times[r] = float64(time.Since(t).Microseconds()) / 1e3
				if err := re.Close(); err != nil {
					return err
				}
			}
			m["plog.reopen_ms"] = median(times)
		}
	}
	return nil
}

// appendBursts is one ladder appender: bursts of 64 RECV records staged
// per lane and waited, then retired with one DONE batch per lane. It
// returns the mean DONE-staging cost per key.
func appendBursts(ls *plog.LaneSet, run string, w, count int, wire [][]byte, now time.Time) (markNsPerKey float64, err error) {
	lanes := ls.Lanes()
	entries := make([][]plog.BatchEntry, lanes)
	keys := make([][]string, lanes)
	commits := make([]plog.Commit, 0, lanes)
	var markNs, marked int64
	for done := 0; done < count; done += 64 {
		for l := range entries {
			entries[l], keys[l] = entries[l][:0], keys[l][:0]
		}
		for k := done; k < min(done+64, count); k++ {
			l := k % lanes
			key := fmt.Sprintf("ladder\x1f%s-w%d-%07d", run, w, k)
			entries[l] = append(entries[l], plog.BatchEntry{Key: key, Payload: wire[k%len(wire)], At: now})
			keys[l] = append(keys[l], key)
		}
		commits = commits[:0]
		for l, es := range entries {
			if len(es) == 0 {
				continue
			}
			c, err := ls.Lane(l).LogReceivedBatchStart(es)
			if err != nil {
				return 0, err
			}
			commits = append(commits, c)
		}
		for _, c := range commits {
			if err := c.Wait(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		for l, ks := range keys {
			if len(ks) == 0 {
				continue
			}
			for _, err := range ls.Lane(l).MarkProcessedBatchAsync(ks, now) {
				if err != nil {
					return 0, err
				}
			}
			marked += int64(len(ks))
		}
		markNs += time.Since(t).Nanoseconds()
	}
	return float64(markNs) / float64(max(marked, 1)), nil
}

// ladderOutbox times one durable handoff: an fsynced Put.
func ladderOutbox(m map[string]float64, dir string, alerts []alert.Alert, n func(int) int) error {
	ob, err := outbox.Open(outbox.Options{Clock: clock.NewReal(), Path: filepath.Join(dir, "ladder.outbox")})
	if err != nil {
		return err
	}
	var perr error
	next := 0
	m["outbox.put_us"] = perOp(n(60), func(int) {
		a := alerts[next%len(alerts)].Clone()
		a.ID = fmt.Sprintf("ob%07d", next)
		next++
		if err := ob.Put(outbox.Entry{User: "ladder", Category: "Investment", Alert: a, Attempts: 4}); err != nil {
			perr = err
		}
	}) / 1e3
	ob.Kill()
	return perr
}
