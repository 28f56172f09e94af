package plog

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The adaptive committer's contract: Window is an upper bound on the
// commit wait, not a constant tax. These tests pick absurdly large
// windows so a scheduler that ever waits the full window times out
// loudly, while the adaptive paths (idle fire, threshold force-flush,
// close) finish in milliseconds. Generous elapsed bounds keep them
// honest on slow CI machines.

// TestAdaptiveIdleFiresImmediately: an append that wakes a parked
// committer commits immediately — even right after a previous fsync.
// A lone committer is never delayed; pacing needs company (a backlog
// staged while an fsync was in flight).
func TestAdaptiveIdleFiresImmediately(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := g.LogReceived(fmt.Sprintf("k%d", i), []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("idle append %d took %v, want immediate (window 30s)", i, el)
		}
	}
}

// TestAdaptiveIdleGapCountsAsWindow: with a small window, a burst, an
// idle gap longer than the window, then another burst — the second
// burst must commit without re-waiting the window.
func TestAdaptiveIdleGapCountsAsWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	g := openGroupTemp(t, GroupOptions{Window: window})
	if err := g.LogReceived("k0", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * window) // idle longer than the window
	start := time.Now()
	if err := g.LogReceived("k1", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > window/2 {
		t.Fatalf("post-idle append waited %v, want well under the %v window", el, window)
	}
}

// expectForceFlush starts n concurrent appenders, each staging entries
// in one LogReceivedBatch, on a log with a 30 s window and a fresh fsync
// behind it, and fails if they do not all return well inside the window.
// Every appender stages at least one force-flush threshold's worth, so
// every batch any interleaving forms is over the threshold and none may
// park for the window.
func expectForceFlush(t *testing.T, n int, entries func(i int) []BatchEntry) {
	t.Helper()
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	// Warm-up commit so lastSync is recent and a paced committer would,
	// absent the threshold, hold any backlog for the window remainder.
	if err := g.LogReceived("warm", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.LogReceivedBatch(entries(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("%d over-threshold appends took %v, want force-flush (window 30s)", n, el)
	}
}

// burst returns n entries keyed prefix0 … prefix(n-1), each carrying
// payload.
func burst(prefix string, n int, payload []byte) []BatchEntry {
	entries := make([]BatchEntry, n)
	for i := range entries {
		entries[i] = BatchEntry{Key: fmt.Sprintf("%s%d", prefix, i), Payload: payload, At: t0}
	}
	return entries
}

// TestAdaptiveForceFlushRecords: a batch of forceFlushRecords records
// commits without waiting out the window.
func TestAdaptiveForceFlushRecords(t *testing.T) {
	expectForceFlush(t, 8, func(i int) []BatchEntry {
		return burst(fmt.Sprintf("k%d-", i), forceFlushRecords, []byte("p"))
	})
}

// TestAdaptiveForceFlushBytes: byte-volume threshold, same contract —
// sixteen 64 KiB payloads encode past forceFlushBytes in far fewer than
// forceFlushRecords records.
func TestAdaptiveForceFlushBytes(t *testing.T) {
	const perAppend = 16
	payload := make([]byte, forceFlushBytes/perAppend)
	expectForceFlush(t, 4, func(i int) []BatchEntry {
		return burst(fmt.Sprintf("big%d-", i), perAppend, payload)
	})
}

// waitInFlight blocks until the committer has taken c's batch: it is no
// longer the open one. With the file lock held, that is mid-write.
func waitInFlight(t *testing.T, g *Log, c Commit) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.qmu.Lock()
		taken := g.open == nil || g.opened != c.n
		g.qmu.Unlock()
		if taken {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the committer never took the batch")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBacklogCommitsInOneFsync: whatever stages while an fsync is in
// flight joins one open batch, and the committer writes it whole — three
// bursts of forceFlushRecords entries staged behind a held write cost
// one fsync, not one each.
func TestBacklogCommitsInOneFsync(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	before := g.Stats().Syncs
	g.fmu.Lock()
	first, err := g.LogReceivedBatchStart(burst("first", 1, []byte("p")))
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, g, first)
	commits := []Commit{first}
	for i := 0; i < 3; i++ {
		c, err := g.LogReceivedBatchStart(burst(fmt.Sprintf("k%d-", i), forceFlushRecords, []byte("p")))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	g.fmu.Unlock()
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Stats().Syncs - before; got != 2 {
		t.Fatalf("the held write and the backlog behind it took %d fsyncs, want 2", got)
	}
}

// TestAdaptiveCloseCutsWindowShort: Close must not strand a committer
// parked mid-window — the staged batch commits and Close returns.
func TestAdaptiveCloseCutsWindowShort(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	if err := g.LogReceived("warm", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- g.LogReceived("parked", []byte("p"), t0) }()
	// Wait until the record is staged (Appended counts staging, not
	// commit) so Close races the window wait, not the append itself.
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Appended < 2 {
		if time.Now().After(deadline) {
			t.Fatal("append never staged")
		}
		time.Sleep(100 * time.Microsecond)
	}
	start := time.Now()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Close took %v, want immediate flush (window 30s)", el)
	}
	if err := <-errc; err != nil {
		t.Fatalf("append staged before Close failed: %v", err)
	}
}

// TestGroupLogOpenCloseLeak cycles a journal open/append/close 1000
// times and checks the process goroutine count stays flat: every
// committer exits, and its pace timer with it.
func TestGroupLogOpenCloseLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("1k open/close cycles")
	}
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		g, err := OpenGroup(fmt.Sprintf("%s/leak%03d.plog", dir, i%8), GroupOptions{Window: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.LogReceived(fmt.Sprintf("k%d", i), []byte("p"), t0); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Give any stragglers a moment, then compare with slack for runtime
	// background goroutines.
	var after int
	for wait := 0; wait < 50; wait++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d across 1000 open/close cycles", before, after)
}

// The tests below pin the other half of the schedule: async DONEs have
// no waiter, so a backlog of nothing else is flushed lazily — and a
// waiter never queues behind that pace, nor behind the committer's disk
// wait.

// returnsWithin fails the test unless f returns within d.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// crashView reopens the journal at path without closing its writer and
// returns the unprocessed keys — what a restart after a crash right now
// would replay.
func crashView(t *testing.T, path string) []string {
	t.Helper()
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var keys []string
	for _, r := range re.Unprocessed() {
		keys = append(keys, r.Key)
	}
	return keys
}

func logBatch(t *testing.T, g *Log, keys ...string) {
	t.Helper()
	entries := make([]BatchEntry, len(keys))
	for i, k := range keys {
		entries[i] = BatchEntry{Key: k, Payload: []byte("p"), At: t0}
	}
	if err := g.LogReceivedBatch(entries); err != nil {
		t.Fatal(err)
	}
}

// TestStagingDoesNotWaitOnFileLock: with the file lock held — the
// committer mid-fsync, as far as anyone else can tell — staging, dedup
// and the replay-backlog reads all complete; only durability waits.
func TestStagingDoesNotWaitOnFileLock(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: time.Millisecond})
	logBatch(t, g, "a", "b")
	g.fmu.Lock()
	var c Commit
	returnsWithin(t, 5*time.Second, "staging under a held file lock", func() {
		var err error
		if c, err = g.LogReceivedBatchStart([]BatchEntry{{Key: "c", Payload: []byte("p"), At: t0}}); err != nil {
			t.Error(err)
		}
		if errs := g.MarkProcessedBatchAsync([]string{"a"}, t0); errs != nil {
			t.Error(errs)
		}
		if !g.Has("c") || g.Has("nope") {
			t.Error("Has does not see what was staged")
		}
		if n := g.Pending(); n != 2 {
			t.Errorf("Pending = %d, want 2 (b, c)", n)
		}
		if un := g.Unprocessed(); len(un) != 2 {
			t.Errorf("Unprocessed = %d records, want 2", len(un))
		}
	})
	g.fmu.Unlock()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// keysN returns the keys k0 … k(n-1).
func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// stillHeld reports whether the n async DONEs staged at or after since
// are all still unflushed. Finding them flushed before doneHold has
// passed fails the test — nobody waited, so nothing may have scheduled
// that fsync; finding them flushed later only means the test machine
// stalled past the hold, and the caller's observation says nothing.
func stillHeld(t *testing.T, g *Log, n int64, since time.Time) bool {
	t.Helper()
	if g.Stats().UnflushedDones == n {
		return true
	}
	if el := time.Since(since); el < doneHold {
		t.Fatalf("waiter-less DONEs flushed %v after staging, before doneHold (%v)", el, doneHold)
	}
	return false
}

// waitFlushed blocks until no DONE is staged but not durable.
func waitFlushed(t *testing.T, g *Log) {
	t.Helper()
	deadline := time.Now().Add(doneHold + 5*time.Second)
	for g.Stats().UnflushedDones > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d DONEs still unflushed long after doneHold (%v)", g.Stats().UnflushedDones, doneHold)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectDeadlineFlush asserts the fate of n async DONEs staged since
// start, with no waiter anywhere, on a log whose Stats were before: they
// stay held, then one fsync — no sooner than doneHold after start,
// counted waiter-less — carries them all.
func expectDeadlineFlush(t *testing.T, g *Log, before Stats, n int64, start time.Time) {
	t.Helper()
	held := stillHeld(t, g, n, start)
	waitFlushed(t, g)
	if el := time.Since(start); el < doneHold {
		t.Fatalf("async DONEs flushed after %v, before doneHold (%v)", el, doneHold)
	}
	s := g.Stats()
	if s.Appended != before.Appended+n {
		t.Fatalf("staged %d records, want %d", s.Appended-before.Appended, n)
	}
	if held && (s.Syncs != before.Syncs+1 || s.WaiterlessSyncs != before.WaiterlessSyncs+1) {
		t.Fatalf("%d DONEs took %d fsyncs (%d waiter-less), want 1 (1)", n, s.Syncs-before.Syncs, s.WaiterlessSyncs-before.WaiterlessSyncs)
	}
}

// TestAsyncDonesShareOneFsync: N concurrent MarkProcessedAsync after a
// RECV commit cost one fsync between them, scheduled by nobody: it comes
// doneHold after the first DONE, whatever the window.
func TestAsyncDonesShareOneFsync(t *testing.T) {
	const n = 16
	g := openGroupTemp(t, GroupOptions{Window: time.Millisecond})
	keys := keysN(n)
	logBatch(t, g, keys...)
	before := g.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.MarkProcessedAsync(k, t0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	expectDeadlineFlush(t, g, before, n, start)
	if un := crashView(t, g.Path()); len(un) != 0 {
		t.Fatalf("crash after the flush replays %v, want nothing", un)
	}
}

// TestLazyDonesRideNextWaiterAcrossManyWindows: batches of async DONEs
// staged over many commit windows buy no fsync between them; the first
// RECV to arrive carries them all on its own.
func TestLazyDonesRideNextWaiterAcrossManyWindows(t *testing.T) {
	const window, batches, per = time.Millisecond, 5, 4
	g := openGroupTemp(t, GroupOptions{Window: window})
	keys := keysN(batches * per)
	logBatch(t, g, keys...)
	before := g.Stats()
	start := time.Now()
	for i := 0; i < batches; i++ {
		if errs := g.MarkProcessedBatchAsync(keys[i*per:(i+1)*per], t0); errs != nil {
			t.Fatal(errs)
		}
		time.Sleep(2 * window)
	}
	if !stillHeld(t, g, batches*per, start) {
		t.Skipf("stalled past doneHold (%v) while staging: nothing to observe", doneHold)
	}
	logBatch(t, g, "next")
	s := g.Stats()
	if s.UnflushedDones != 0 {
		t.Fatalf("%d DONEs unflushed after the RECV's commit, want 0: they ride it", s.UnflushedDones)
	}
	if time.Since(start) < doneHold && (s.Syncs != before.Syncs+1 || s.WaiterlessSyncs != before.WaiterlessSyncs) {
		t.Fatalf("%d DONE batches + 1 RECV took %d fsyncs (%d waiter-less), want 1 (0)",
			batches, s.Syncs-before.Syncs, s.WaiterlessSyncs-before.WaiterlessSyncs)
	}
	if un := crashView(t, g.Path()); fmt.Sprint(un) != "[next]" {
		t.Fatalf("crash view replays %v, want [next]", un)
	}
}

// TestLazyDonesFlushAtDeadline: with no waiter in sight the DONEs are
// flushed doneHold after the first was staged — on a window-0 log exactly
// as on a windowed one — by one fsync that Stats counts as waiter-less.
func TestLazyDonesFlushAtDeadline(t *testing.T) {
	for _, window := range []time.Duration{0, 2 * time.Millisecond, 30 * time.Second} {
		t.Run(fmt.Sprint("window=", window), func(t *testing.T) {
			g := openGroupTemp(t, GroupOptions{Window: window})
			logBatch(t, g, "a", "b", "c")
			before := g.Stats()
			start := time.Now()
			if errs := g.MarkProcessedBatchAsync([]string{"a", "b"}, t0); errs != nil {
				t.Fatal(errs)
			}
			expectDeadlineFlush(t, g, before, 2, start)
			if un := crashView(t, g.Path()); fmt.Sprint(un) != "[c]" {
				t.Fatalf("crash view after the deadline replays %v, want [c]", un)
			}
		})
	}
}

// TestCrashInsideDoneHoldReplaysRecords is the price of the hold: a
// crash while DONEs are staged but not durable replays exactly their
// records — whole, in order, beside the ones never marked — and nothing
// that was durably marked before.
func TestCrashInsideDoneHoldReplaysRecords(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: time.Millisecond})
	keys := keysN(8)
	logBatch(t, g, keys...)
	if err := g.MarkProcessed("k0", t0); err != nil { // durable: never replays
		t.Fatal(err)
	}
	start := time.Now()
	if errs := g.MarkProcessedBatchAsync(keys[1:6], t0); errs != nil {
		t.Fatal(errs)
	}
	re, err := Open(g.Path())
	if err != nil {
		t.Fatal(err)
	}
	un, corrupt := re.Unprocessed(), re.Stats().CorruptRecords
	re.Close()
	if !stillHeld(t, g, 5, start) {
		t.Skipf("stalled past doneHold (%v) before the crash view: nothing to observe", doneHold)
	}
	if len(un) != 7 || corrupt != 0 {
		t.Fatalf("crash inside the hold replays %d records (%d corrupt), want k1..k7 and 0", len(un), corrupt)
	}
	for i, r := range un {
		if r.Key != keys[i+1] || string(r.Payload) != "p" || !r.ReceivedAt.Equal(t0) {
			t.Fatalf("replayed record %d = %+v, want %s whole", i, r, keys[i+1])
		}
	}
	waitFlushed(t, g)
	if un := crashView(t, g.Path()); fmt.Sprint(un) != "[k6 k7]" {
		t.Fatalf("crash after the hold replays %v, want [k6 k7]", un)
	}
}

// TestAsyncDonesRideNextRecvCommit: a RECV staged while DONEs are
// being lazily paced cuts the pace short, and one fsync carries both.
func TestAsyncDonesRideNextRecvCommit(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	logBatch(t, g, "a", "b")
	if err := g.MarkProcessedAsync("a", t0); err != nil {
		t.Fatal(err)
	}
	before := g.Stats().Syncs
	returnsWithin(t, 10*time.Second, "a RECV behind lazily paced DONEs (window 30s)", func() {
		if err := g.LogReceived("c", []byte("p"), t0); err != nil {
			t.Error(err)
		}
	})
	if got := g.Stats().Syncs - before; got != 1 {
		t.Fatalf("RECV + paced DONE took %d fsyncs, want 1", got)
	}
	if un := crashView(t, g.Path()); fmt.Sprint(un) != "[b c]" {
		t.Fatalf("crash view replays %v, want [b c]: the DONE rode the RECV's fsync", un)
	}
}

// TestDuplicateRecvCutsLazyPace: a no-op append is handed the youngest
// pending batch to wait on; when that is a batch of lazily paced DONEs
// the caller is a waiter like any other and must not sit out the
// window.
func TestDuplicateRecvCutsLazyPace(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	logBatch(t, g, "a", "b", "c")
	if err := g.MarkProcessedAsync("a", t0); err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, 10*time.Second, "a duplicate RECV behind lazily paced DONEs (window 30s)", func() {
		if err := g.LogReceived("b", []byte("p"), t0); err != nil {
			t.Error(err)
		}
	})
	if err := g.MarkProcessedAsync("b", t0); err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, 10*time.Second, "a repeated synchronous DONE behind lazily paced DONEs (window 30s)", func() {
		if err := g.MarkProcessed("a", t0); err != nil {
			t.Error(err)
		}
	})
	if un := crashView(t, g.Path()); fmt.Sprint(un) != "[c]" {
		t.Fatalf("crash view replays %v, want [c]: each waiter's return covers the DONEs before it", un)
	}
}

// TestCheckpointAndCloseFlushLazyDones: neither Checkpoint nor Close
// waits out the hold, and neither drops the DONEs it found held —
// Checkpoint flushes them before it snapshots, as a waiter; Close as
// nobody.
func TestCheckpointAndCloseFlushLazyDones(t *testing.T) {
	for _, window := range []time.Duration{0, 30 * time.Second} {
		t.Run(fmt.Sprint("window=", window), func(t *testing.T) {
			g := openGroupTemp(t, GroupOptions{Window: window})
			logBatch(t, g, "a", "b", "c")
			start := time.Now()
			if err := g.MarkProcessedAsync("a", t0); err != nil {
				t.Fatal(err)
			}
			held := stillHeld(t, g, 1, start)
			if err := g.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s := g.Stats()
			if s.UnflushedDones != 0 || (held && time.Since(start) < doneHold && s.WaiterlessSyncs != 0) {
				t.Fatalf("after Checkpoint: %d DONEs unflushed, %d waiter-less fsyncs, want 0 and 0", s.UnflushedDones, s.WaiterlessSyncs)
			}
			if un := crashView(t, g.Path()); fmt.Sprint(un) != "[b c]" {
				t.Fatalf("crash view after Checkpoint replays %v, want [b c]", un)
			}
			if err := g.MarkProcessedAsync("b", t0); err != nil {
				t.Fatal(err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			if n := g.Stats().UnflushedDones; n != 0 {
				t.Fatalf("%d DONEs unflushed after Close", n)
			}
			re, err := Open(g.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if un := re.Unprocessed(); len(un) != 1 || un[0].Key != "c" {
				t.Fatalf("reopen after Close replays %+v, want only c", un)
			}
		})
	}
}
