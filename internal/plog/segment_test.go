package plog

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fill appends n received alerts keyed k0..k(n-1), marking every key
// processed for which keep(i) is false.
func fill(t *testing.T, l *Log, n int, keep func(i int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := l.LogReceived(key, []byte("payload-"+key), t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if !keep(i) {
			if err := l.MarkProcessed(key, t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSegmentRotationAndReplay forces rotations with a tiny segment cap
// and checks that recovery replays every segment in order.
func TestSegmentRotationAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.plog")
	l, err := OpenGroup(path, GroupOptions{Log: Options{SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 50, func(i int) bool { return i%2 == 0 })
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("SegmentBytes=256 with 100 appends produced only %d segments", st.Segments)
	}
	if got := len(segmentsOf(t, path)); got != st.Segments {
		t.Fatalf("on-disk segments = %d, Stats says %d", got, st.Segments)
	}
	l.Close()

	re, err := OpenGroup(path, GroupOptions{Log: Options{SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst := re.Stats()
	if rst.SegmentsReplayed != st.Segments {
		t.Fatalf("replayed %d segments, want %d", rst.SegmentsReplayed, st.Segments)
	}
	if re.Len() != 50 {
		t.Fatalf("Len = %d, want 50", re.Len())
	}
	un := re.Unprocessed()
	if len(un) != 25 {
		t.Fatalf("Unprocessed = %d, want 25", len(un))
	}
	for j, rec := range un {
		want := fmt.Sprintf("k%04d", 2*j)
		if rec.Key != want || string(rec.Payload) != "payload-"+want {
			t.Fatalf("Unprocessed[%d] = %q/%q, want %q", j, rec.Key, rec.Payload, want)
		}
	}
}

// TestCheckpointCompactsSegments checks the core compaction contract:
// after a checkpoint, covered segments are gone, disk is bounded, and a
// reopen sees exactly the same logical state.
func TestCheckpointCompactsSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.plog")
	l, err := OpenGroup(path, GroupOptions{Log: Options{SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 60, func(i int) bool { return i >= 55 }) // only the last 5 stay unprocessed
	before := l.Stats()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.CheckpointGen != 1 || st.Checkpoints != 1 {
		t.Fatalf("checkpoint state = gen %d / %d written", st.CheckpointGen, st.Checkpoints)
	}
	if st.Segments != 1 {
		t.Fatalf("segments after compaction = %d, want 1 (fresh active)", st.Segments)
	}
	if st.CompactedBytes == 0 {
		t.Fatal("CompactedBytes = 0 after compaction")
	}
	if st.DiskBytes >= before.DiskBytes {
		t.Fatalf("disk grew across compaction: %d -> %d", before.DiskBytes, st.DiskBytes)
	}
	// Idempotent when nothing new was appended.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Checkpoints; got != 1 {
		t.Fatalf("no-op checkpoint still wrote a file (%d)", got)
	}
	l.Close()

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 60 {
		t.Fatalf("Len after compacted reopen = %d, want 60", re.Len())
	}
	un := re.Unprocessed()
	if len(un) != 5 || un[0].Key != "k0055" || un[4].Key != "k0059" {
		t.Fatalf("Unprocessed after compacted reopen = %+v", un)
	}
	if rs := re.Stats().SegmentsReplayed; rs > 1 {
		t.Fatalf("reopen replayed %d segments, want <= 1", rs)
	}
}

// TestIdleLogRunsOnlyTheCommitter: background checkpointing costs no
// standing goroutine. An idle log with CheckpointEvery set runs its
// committer alone, and the checkpoint goroutine a tripped threshold
// starts exits when its checkpoint is written.
func TestIdleLogRunsOnlyTheCommitter(t *testing.T) {
	// settled reads runtime.NumGoroutine once two reads 20 ms apart agree:
	// goroutines exit just after the call that retires them returns.
	settled := func() int {
		for n := runtime.NumGoroutine(); ; {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
	}
	check := func(base int, when string) {
		t.Helper()
		if n := settled() - base; n != 1 {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: the log runs %d goroutines, want 1 (its committer):\n%s", when, n, buf[:runtime.Stack(buf, true)])
		}
	}
	base := settled()
	l, err := OpenGroup(filepath.Join(t.TempDir(), "idle.plog"), GroupOptions{Log: Options{CheckpointEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(base, "after Open")
	// No DONEs, so nothing commits after fill: the last commit's
	// checkpoint, if it started one, is the last to run.
	fill(t, l, 32, func(int) bool { return true })
	deadline := time.Now().Add(10 * time.Second)
	for l.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the background checkpoint never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Checkpoints == 0 {
		t.Fatal("32 records past a threshold of 8 started no checkpoint")
	}
	check(base, "after a background checkpoint")
}

// TestBoundedRecovery is the headline property: with background
// checkpointing on, recovery work stays O(unprocessed + tail) no matter
// how many alerts have flowed through the log.
func TestBoundedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bounded.plog")
	opts := Options{SegmentBytes: 1024, CheckpointEvery: 200, sweepEvery: 64}
	l, err := OpenGroup(path, GroupOptions{Log: opts})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	fill(t, l, n, func(i int) bool { return i >= n-3 })
	// The compactor runs in the background; force one last checkpoint so
	// the bound is deterministic, then verify it actually compacted.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Checkpoints == 0 || st.CompactedBytes == 0 {
		t.Fatalf("compaction never ran: %+v", st)
	}
	if st.Retired == 0 {
		t.Fatalf("sweep never retired processed records: %+v", st)
	}
	if st.Live > 2*opts.sweepEvery+3 {
		t.Fatalf("resident records = %d, want O(sweepEvery)", st.Live)
	}
	l.Close()

	re, err := OpenGroup(path, GroupOptions{Log: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst := re.Stats()
	if rst.SegmentsReplayed > 3 {
		t.Fatalf("bounded recovery replayed %d segments after %d alerts", rst.SegmentsReplayed, n)
	}
	if re.Len() != n {
		t.Fatalf("Len survived compaction wrong: %d, want %d", re.Len(), n)
	}
	un := re.Unprocessed()
	if len(un) != 3 || un[0].Key != fmt.Sprintf("k%04d", n-3) {
		t.Fatalf("Unprocessed after bounded recovery = %+v", un)
	}
	if rst.Live != 3 {
		t.Fatalf("resident records after bounded recovery = %d, want the 3 unprocessed", rst.Live)
	}
	// The log keeps working after a checkpointed reopen.
	if err := re.LogReceived("post", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := re.MarkProcessed(fmt.Sprintf("k%04d", n-1), t0); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCheckpointFallsBack simulates a crash mid-checkpoint: a
// leftover tmp file plus a torn "newer" checkpoint whose covered
// segments were NOT yet deleted (deletion is ordered after checkpoint
// durability). Recovery must discard both and recover everything from
// the previous checkpoint + full segment replay.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fallback.plog")
	l, err := OpenGroup(path, GroupOptions{Log: Options{SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 20, func(i int) bool { return i%4 == 0 })
	if err := l.Checkpoint(); err != nil { // durable gen 1
		t.Fatal(err)
	}
	fill2 := func(i int) bool { return i%3 == 0 }
	for i := 20; i < 40; i++ {
		key := fmt.Sprintf("k%04d", i)
		if err := l.LogReceived(key, []byte("payload-"+key), t0); err != nil {
			t.Fatal(err)
		}
		if !fill2(i) {
			if err := l.MarkProcessed(key, t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantUn := l.Unprocessed()
	wantLen := l.Len()
	l.Close()

	// Crash artifacts: a half-written tmp and a torn gen-2 checkpoint
	// (renamed into place but missing its END trailer — e.g. a torn
	// sector). The gen-1 checkpoint and every later segment still exist.
	if err := os.WriteFile(path+".ckpt.tmp", []byte("CKPT 1 3 9 9"), 0o644); err != nil {
		t.Fatal(err)
	}
	run, _ := appendRun(nil, []Record{{Key: "k0000", Payload: []byte("x"), seq: 1}})
	torn := fmt.Sprintf("CKPT %d 2 99 2 40 0\n", ckptVersion) + string(run)
	if err := os.WriteFile(path+".ckpt.00000002", []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != wantLen {
		t.Fatalf("Len after fallback = %d, want %d", re.Len(), wantLen)
	}
	gotUn := re.Unprocessed()
	if len(gotUn) != len(wantUn) {
		t.Fatalf("Unprocessed after fallback = %d records, want %d", len(gotUn), len(wantUn))
	}
	for i := range gotUn {
		if gotUn[i].Key != wantUn[i].Key || string(gotUn[i].Payload) != string(wantUn[i].Payload) {
			t.Fatalf("Unprocessed[%d] = %+v, want %+v", i, gotUn[i], wantUn[i])
		}
	}
	st := re.Stats()
	if st.CheckpointGen != 1 {
		t.Fatalf("fallback checkpoint gen = %d, want 1", st.CheckpointGen)
	}
	if st.CorruptRecords == 0 {
		t.Fatal("corrupt checkpoint not counted")
	}
	// The torn artifacts are gone from disk.
	if _, err := os.Stat(path + ".ckpt.tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp checkpoint survived recovery")
	}
	if _, err := os.Stat(path + ".ckpt.00000002"); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint survived recovery")
	}
	// And checkpointing resumes past the poisoned generation.
	if err := re.LogReceived("resume", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if gen := re.Stats().CheckpointGen; gen != 2 {
		t.Fatalf("post-fallback checkpoint gen = %d, want 2", gen)
	}
}

// TestSweepRetiresProcessed checks the memory bound: processed records
// are tombstoned immediately (payload freed) and the periodic sweep
// drops them from the index entirely.
// TestCheckpointKeepsSeqsAcrossGaps: a checkpoint of an unprocessed set
// whose seqs have gaps (3, 4, 9, 10, 11 of 11) is written as one run per
// stretch, reloads with the same seqs, and a DONE list written after the
// checkpoint — which names records by seq — retires the right ones. The
// numbering carries on from the header's total.
func TestCheckpointKeepsSeqsAcrossGaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.plog")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	key := func(seq int) string { return fmt.Sprintf("k%02d", seq) }
	kept := map[int]bool{3: true, 4: true, 9: true, 10: true, 11: true}
	for seq := 1; seq <= 11; seq++ {
		if err := l.LogReceived(key(seq), []byte("payload-"+key(seq)), t0); err != nil {
			t.Fatal(err)
		}
	}
	for seq := 1; seq <= 11; seq++ {
		if !kept[seq] {
			if err := l.MarkProcessed(key(seq), t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(l.ckptPath(1))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(string(ckpt), "\n")
	frames, _ := walkFrames([]byte(segMagic + strings.TrimSuffix(body, "END 5\n")))
	if len(frames) != 2 || frames[0].recvs != 2 || frames[1].recvs != 3 {
		t.Fatalf("checkpoint body frames are %+v, want a run of 2 and a run of 3", frames)
	}
	if errs := l.MarkProcessedBatchAsync([]string{key(10), key(4)}, t0); errs != nil {
		t.Fatal(errs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(activeSegmentPath(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if frames, _ := walkFrames(tail); len(frames) != 1 || frames[0].dones != 2 {
		t.Fatalf("post-checkpoint segment frames are %+v, want one DONE list of 2", frames)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.CheckpointGen != 1 || st.CorruptRecords != 0 || st.Total != 11 {
		t.Fatalf("reopened at checkpoint gen %d, %d corrupt, total %d; want 1, 0, 11", st.CheckpointGen, st.CorruptRecords, st.Total)
	}
	if err := re.LogReceived("next", nil, t0); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range re.Unprocessed() {
		got = append(got, fmt.Sprintf("%s=%d", r.Key, r.seq))
	}
	if want := "k03=3 k09=9 k11=11 next=12"; strings.Join(got, " ") != want {
		t.Fatalf("unprocessed after checkpoint + DONE list = %v, want %s", got, want)
	}
}

func TestSweepRetiresProcessed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.plog")
	l, err := OpenGroup(path, GroupOptions{Log: Options{sweepEvery: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, 20, func(i int) bool { return i >= 16 })
	st := l.Stats()
	if st.Retired != 16 {
		t.Fatalf("Retired = %d, want 16", st.Retired)
	}
	if st.Live != 4 || st.Unprocessed != 4 {
		t.Fatalf("Live/Unprocessed = %d/%d, want 4/4", st.Live, st.Unprocessed)
	}
	if l.Len() != 20 {
		t.Fatalf("Len = %d, want 20 (all-time)", l.Len())
	}
	// Swept keys are gone from the index…
	if l.Has("k0000") || l.IsProcessed("k0000") {
		t.Fatal("swept key still resident")
	}
	if err := l.MarkProcessed("k0000", t0); !strings.Contains(fmt.Sprint(err), "unknown key") {
		t.Fatalf("MarkProcessed(swept) = %v, want ErrUnknownKey", err)
	}
	// …while survivors keep full fidelity and arrival order.
	un := l.Unprocessed()
	if len(un) != 4 || un[0].Key != "k0016" || un[3].Key != "k0019" {
		t.Fatalf("Unprocessed after sweep = %+v", un)
	}
}

// TestReplayKeepsResubmissionAfterSweep: once the sweep has retired a
// key, a resubmission of it is a fresh record, logged and acked, and
// replay must keep it — whether the first record's DONE is one replay
// drops or one it keeps as a tombstone — and the resubmission must still
// take its DONE afterwards.
func TestReplayKeepsResubmissionAfterSweep(t *testing.T) {
	const sweep = 4
	logAndMark := func(t *testing.T, l *Log, keys ...string) {
		t.Helper()
		for _, key := range keys {
			if err := l.LogReceived(key, []byte("p"), t0); err != nil {
				t.Fatal(err)
			}
		}
		if errs := l.MarkProcessedBatchAsync(keys, t0); errs != nil {
			t.Fatal(errs)
		}
	}
	for _, tc := range []struct {
		name string
		// before logs and marks the five first records, k among them.
		before func(t *testing.T, l *Log)
	}{
		// k's DONE comes first of five: replay keeps only the last DONE's
		// record as a tombstone, and drops k.
		{"Dropped", func(t *testing.T, l *Log) {
			for _, key := range []string{"k", "a", "b", "c", "d"} {
				logAndMark(t, l, key)
			}
		}},
		// k's DONE is the last of five, in a list whose two DONEs pushed
		// the live log past sweepEvery: replay keeps k as a tombstone, and
		// the resubmission may commit ahead of that DONE list.
		{"Tombstone", func(t *testing.T, l *Log) {
			for _, key := range []string{"a", "b", "c"} {
				logAndMark(t, l, key)
			}
			logAndMark(t, l, "d", "k")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := GroupOptions{Log: Options{sweepEvery: sweep}}
			path := filepath.Join(t.TempDir(), "resubmit.plog")
			l, err := OpenGroup(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			tc.before(t, l)
			if l.Has("k") {
				t.Fatal("the sweep did not retire k")
			}
			if err := l.LogReceived("k", []byte("resubmitted"), t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenGroup(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			un := re.Unprocessed()
			if len(un) != 1 || un[0].Key != "k" || string(un[0].Payload) != "resubmitted" || un[0].seq != 6 || re.Len() != 6 {
				re.Close()
				t.Fatalf("after a reopen: unprocessed %+v, Len %d; want the resubmitted k as seq 6 of 6", un, re.Len())
			}
			if err := re.MarkProcessed("k", t0); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenGroup(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if p := again.Pending(); p != 0 {
				t.Fatalf("after the resubmission's DONE and a reopen, %d records pending", p)
			}
		})
	}
}

// TestReopenResidency pins what replay keeps resident, with no
// checkpoint: the unprocessed records, and as tombstones only those the
// tail's last D mod sweepEvery DONEs name — what a live log marking one
// record at a time holds, so a tail of fewer than sweepEvery DONEs, or a
// log that never sweeps, keeps every tombstone.
func TestReopenResidency(t *testing.T) {
	const sweep, unprocessed = 8, 3
	for _, tc := range []struct {
		name         string
		sweepEvery   int
		dones, tombs int
	}{
		{"PastSweeps", sweep, 3*sweep + 5, 5},
		{"UnderOneSweep", sweep, sweep - 1, sweep - 1},
		{"SweepOff", -1, 3*sweep + 5, 3*sweep + 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := GroupOptions{Log: Options{sweepEvery: tc.sweepEvery}}
			path := filepath.Join(t.TempDir(), "residency.plog")
			l, err := OpenGroup(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.dones + unprocessed
			fill(t, l, n, func(i int) bool { return i >= tc.dones })
			live := l.Stats().Live
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenGroup(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			st := re.Stats()
			if st.Live != unprocessed+tc.tombs || st.Unprocessed != unprocessed || st.Total != int64(n) || st.Live != live {
				t.Fatalf("reopened live %d, unprocessed %d, total %d; want %d, %d, %d (the live log held %d)",
					st.Live, st.Unprocessed, st.Total, unprocessed+tc.tombs, unprocessed, n, live)
			}
			if st.Retired != int64(tc.dones-tc.tombs) {
				t.Fatalf("reopened with %d retired, want the %d DONE records replay skipped", st.Retired, tc.dones-tc.tombs)
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%04d", i)
				tomb := i < tc.dones && i >= tc.dones-tc.tombs
				if re.IsProcessed(key) != tomb || re.Has(key) != (tomb || i >= tc.dones) {
					t.Fatalf("%s: IsProcessed %v, Has %v; want %v, %v", key, re.IsProcessed(key), re.Has(key), tomb, tomb || i >= tc.dones)
				}
			}
		})
	}
}
