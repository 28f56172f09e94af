package plog

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"simba/internal/race"
)

// slabBurst builds n entries the way the hub does: every key a
// substring of one string, every payload its own buffer.
func slabBurst(round, n int) ([]BatchEntry, []string) {
	var slab []byte
	spans := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		spans = append(spans, len(slab))
		slab = fmt.Appendf(slab, "user-%d\x1fportal/a-%d-%d", i, round, i)
	}
	spans = append(spans, len(slab))
	all := string(slab)
	entries := make([]BatchEntry, n)
	keys := make([]string, n)
	for i := range entries {
		keys[i] = all[spans[i]:spans[i+1]]
		entries[i] = BatchEntry{Key: keys[i], Payload: []byte(fmt.Sprintf("payload %d of round %d", i, round)), At: t0}
	}
	return entries, keys
}

// TestStageRecvAllocsPerBurst pins the journal's write side at a
// per-burst, not per-record, allocation cost: staging a burst of fresh
// records and staging their DONEs allocates nothing of its own — a
// commit is a batch number, the two batch structs are reused, and the
// payloads are copied into the free tail of the log's 16 KiB payload
// arena chunk — whether the burst is 8, 64 or 256 records (measured
// 0.12, 0.12 and 0.52 per burst, median of 7; 0.12, 0.42 and 1.70 while
// every sweep made a new order slice and index, 1.09, 1.33 and 2.20
// while each burst's payloads were a slab of their own, and 3.09, 3.33
// and 4.20 while each commit batch and its done channel were fresh).
// What is left is one arena chunk per 16 KiB of payload, which is what
// the slack is for: the sweep compacts in place. The budget is 1.25 ×
// the largest median.
func TestStageRecvAllocsPerBurst(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	const (
		warmup, measured = 64, 64 // bursts
		budget           = 0.65   // allocations per burst: 1.25 × 0.52
		slack            = 0.5    // a 256-record burst's extra arena chunks: 1.25 × 0.40
	)
	perBurst := make(map[int]float64)
	for _, n := range []int{8, 64, 256} {
		l := openGroupTemp(t, GroupOptions{})
		bursts := make([][]BatchEntry, warmup+measured)
		keys := make([][]string, len(bursts))
		for r := range bursts {
			bursts[r], keys[r] = slabBurst(r, n)
		}
		run := func(lo, hi int) {
			for r := lo; r < hi; r++ {
				c, err := l.LogReceivedBatchStart(bursts[r])
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Wait(); err != nil {
					t.Fatal(err)
				}
				if errs := l.MarkProcessedBatchAsync(keys[r], t0); errs != nil {
					t.Fatal(errs)
				}
			}
		}
		run(0, warmup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(warmup, warmup+measured)
		runtime.ReadMemStats(&after)
		perBurst[n] = float64(after.Mallocs-before.Mallocs) / measured
		t.Logf("burst of %3d: %.2f allocs/burst, %.3f allocs/record", n, perBurst[n], perBurst[n]/float64(n))
		if perBurst[n] > budget {
			t.Errorf("a burst of %d costs %.2f allocations, budget %.2f", n, perBurst[n], budget)
		}
	}
	if perBurst[256] > perBurst[8]+slack {
		t.Errorf("a burst of 256 costs %.2f allocations and a burst of 8 %.2f: the cost grows with the burst", perBurst[256], perBurst[8])
	}
}

// TestPayloadSlabOwnership pins the three things a shared payload slab
// could break. The caller's buffers are not kept: scribbling on the
// staged payloads and the entries once LogReceivedBatchStart has
// returned changes nothing Unprocessed reports. Records do not reach
// each other: an append to one record's payload — the log's own or a
// copy Unprocessed handed out — leaves the next record's bytes intact.
// And a slab dies record by record: with all but one record of a burst
// DONE and swept, the survivor's key and payload still read back — also
// once a thousand later bursts have filled and replaced arena chunks.
func TestPayloadSlabOwnership(t *testing.T) {
	const n = 16
	l := openGroupTemp(t, GroupOptions{Log: Options{sweepEvery: n - 1}})
	entries, keys := slabBurst(0, n)
	want := make([][]byte, n)
	for i := range entries {
		want[i] = bytes.Clone(entries[i].Payload)
	}
	c, err := l.LogReceivedBatchStart(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		for k := range entries[i].Payload {
			entries[i].Payload[k] = 0xDB
		}
		entries[i] = BatchEntry{Key: "scribbled", Payload: []byte("scribbled")}
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	check := func(recs []Record, from int) {
		t.Helper()
		if len(recs) != len(keys)-from {
			t.Fatalf("%d unprocessed records, want %d", len(recs), len(keys)-from)
		}
		for i, r := range recs {
			if r.Key != keys[from+i] || !bytes.Equal(r.Payload, want[from+i]) {
				t.Fatalf("record %d reads back %q / %q, want %q / %q", from+i, r.Key, r.Payload, keys[from+i], want[from+i])
			}
		}
	}
	out := l.Unprocessed()
	check(out, 0)

	// Appends cannot cross from one record into the next.
	l.mu.Lock()
	for i := range l.order {
		if p := l.order[i].Payload; cap(p) != len(p) {
			t.Errorf("the log's record %d has %d spare bytes of its slab behind it", i, cap(p)-len(p))
		}
	}
	_ = append(l.order[0].Payload, "overflow into the neighbour"...)
	l.mu.Unlock()
	for i := range out {
		if p := out[i].Payload; cap(p) != len(p) {
			t.Errorf("Unprocessed's record %d has %d spare bytes of its slab behind it", i, cap(p)-len(p))
		}
	}
	_ = append(out[0].Payload, "overflow into the neighbour"...)
	if !bytes.Equal(out[1].Payload, want[1]) {
		t.Fatalf("appending to record 0 rewrote record 1: %q", out[1].Payload)
	}
	check(l.Unprocessed(), 0)

	// All but the last record DONE, and swept: the slab's one survivor.
	if errs := l.MarkProcessedBatchAsync(keys[:n-1], t0); errs != nil {
		t.Fatal(errs)
	}
	if st := l.Stats(); st.Live != 1 || st.Unprocessed != 1 || st.Retired != n-1 {
		t.Fatalf("after %d DONEs: live %d, unprocessed %d, retired %d; want 1, 1, %d", n-1, st.Live, st.Unprocessed, st.Retired, n-1)
	}
	runtime.GC() // the swept records and the caller's scribbled buffers are garbage now
	check(l.Unprocessed(), n-1)

	// The same after a reopen, where the survivor's payload was copied
	// out of the frame buffer into a replay chunk, and its key is a
	// substring of the one string its replayed run's kept keys share.
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenGroup(path, GroupOptions{Log: Options{sweepEvery: n - 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2.Unprocessed(), n-1)
	l2.mu.Lock()
	if p := l2.order[len(l2.order)-1].Payload; cap(p) != len(p) || l2.replaySlab != nil {
		t.Errorf("after recovery the survivor's payload has capacity %d for %d bytes and the replay chunk is %v", cap(p), len(p), l2.replaySlab != nil)
	}
	l2.mu.Unlock()

	// Replay holds what the live log held: its n-1 DONEs are a multiple
	// of sweepEvery, so no tombstone — the run-mates are counted retired,
	// never indexed.
	if st := l2.Stats(); st.Live != 1 || st.Retired != n-1 {
		t.Fatalf("after the reopen: live %d, retired %d; want 1, %d", st.Live, st.Retired, n-1)
	}
	if l2.Has(keys[0]) || !l2.Has(keys[n-1]) {
		t.Fatalf("Has(%q) = %v, Has(%q) = %v; want false, true", keys[0], l2.Has(keys[0]), keys[n-1], l2.Has(keys[n-1]))
	}
	runtime.GC()
	check(l2.Unprocessed(), n-1)

	// The arena moves on: a burst staged early, then a thousand later
	// bursts, scribbled on and DONE, that fill and replace payload
	// chunks; the early records and the survivor still read back intact.
	early, earlyKeys := slabBurst(-1, n)
	for i := range early {
		keys = append(keys, earlyKeys[i])
		want = append(want, bytes.Clone(early[i].Payload))
	}
	if err := l2.LogReceivedBatch(early); err != nil {
		t.Fatal(err)
	}
	l2.mu.Lock()
	chunk := &l2.payloads[:1][0]
	l2.mu.Unlock()
	for r := 1; r <= 1000; r++ {
		later, laterKeys := slabBurst(r, 8)
		if err := l2.LogReceivedBatch(later); err != nil {
			t.Fatal(err)
		}
		for i := range later {
			clear(later[i].Payload)
		}
		if errs := l2.MarkProcessedBatchAsync(laterKeys, t0); errs != nil {
			t.Fatal(errs)
		}
	}
	l2.mu.Lock()
	replaced := &l2.payloads[:1][0] != chunk
	l2.mu.Unlock()
	if !replaced {
		t.Fatal("a thousand bursts did not move the payload arena to a new chunk")
	}
	runtime.GC()
	check(l2.Unprocessed(), n-1)
}

// TestReopenAllocBudget pins recovery at a per-run, not per-record,
// allocation cost: reopening 8,192 records written in bursts of 64, one
// burst in eight left unprocessed, costs the DONE seqs, the index, the
// replay chunks and one key string per RECV run with a record replay
// keeps. Measured 0.024 allocations per record; 0.035 when replay
// indexed every record, 1.02 when every replayed key was a string of its
// own.
func TestReopenAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	const (
		bursts, burst = 128, 64
		budget        = 0.1 // allocations per record
	)
	l := openGroupTemp(t, GroupOptions{})
	for r := 0; r < bursts; r++ {
		entries, keys := slabBurst(r, burst)
		if err := l.LogReceivedBatch(entries); err != nil {
			t.Fatal(err)
		}
		if r%8 != 0 {
			if errs := l.MarkProcessedBatchAsync(keys, t0); errs != nil {
				t.Fatal(errs)
			}
		}
	}
	path := l.Path()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l2, err := Open(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Total != bursts*burst || st.Unprocessed != bursts*burst/8 {
		t.Fatalf("reopened %d records, %d unprocessed; want %d, %d", st.Total, st.Unprocessed, bursts*burst, bursts*burst/8)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / (bursts * burst)
	t.Logf("reopen: %.3f allocs/record over %d records (budget %.2f)", perRecord, bursts*burst, budget)
	if perRecord > budget {
		t.Errorf("reopening costs %.3f allocations per record, budget %.2f", perRecord, budget)
	}
}
