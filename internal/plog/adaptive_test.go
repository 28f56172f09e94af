package plog

import (
	"fmt"
	"runtime"
	"strings"
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

// TestAdaptiveForceFlushRecords: a backlog at or over MaxBatch
// must commit without waiting out the window. With the threshold at 1
// record, every backlog qualifies, so no interleaving of the
// concurrent appends below can leave a sub-threshold straggler parked
// for the 30s window — any wait at all fails the elapsed bound.
func TestAdaptiveForceFlushRecords(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second, MaxBatch: 1})
	// Warm-up commit so lastSync is recent and a paced committer would,
	// absent the threshold, hold any backlog for the window remainder.
	if err := g.LogReceived("warm", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.LogReceived(fmt.Sprintf("k%d", i), []byte("p"), t0); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("%d appends with MaxBatch=1 took %v, want force-flush (window 30s)", n, el)
	}
}

// TestAdaptiveForceFlushBytes: byte-volume threshold, same contract —
// each 128-byte payload alone exceeds CommitMaxBytes, so any backlog
// the concurrent appends form is over threshold and must not park.
func TestAdaptiveForceFlushBytes(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second, CommitMaxBytes: 64})
	if err := g.LogReceived("warm", []byte("p"), t0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 8
	payload := []byte(strings.Repeat("x", 128))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := g.LogReceived(fmt.Sprintf("big%d", i), payload, t0); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("%d over-bytes appends took %v, want force-flush (window 30s)", n, el)
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
// committer exits and every window timer is stopped and drained.
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

// TestAsyncDonesShareOneFsync: N concurrent MarkProcessedAsync after a
// RECV commit cost one fsync between them, no later than one window
// after the first.
func TestAsyncDonesShareOneFsync(t *testing.T) {
	const n, window = 16, 250 * time.Millisecond
	g := openGroupTemp(t, GroupOptions{Window: window})
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
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
	for g.Stats().Syncs == before.Syncs {
		if time.Since(start) > window+5*time.Second {
			t.Fatalf("async DONEs still unflushed %v after the first (window %v)", time.Since(start), window)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * window) // a straggler fsync would land by now
	if s := g.Stats(); s.Syncs != before.Syncs+1 || s.Appended != before.Appended+n {
		t.Fatalf("%d DONEs took %d fsyncs, want %d in exactly 1", s.Appended-before.Appended, s.Syncs-before.Syncs, n)
	}
	if un := crashView(t, g.Path()); len(un) != 0 {
		t.Fatalf("crash after the flush replays %v, want nothing", un)
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

// TestCloseFlushesLazyDones: Close neither waits out a lazy pace nor
// drops the DONEs it was holding; Checkpoint likewise flushes them
// before it snapshots.
func TestCloseFlushesLazyDones(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{Window: 30 * time.Second})
	logBatch(t, g, "a", "b", "c")
	if err := g.MarkProcessedAsync("a", t0); err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, 10*time.Second, "Checkpoint over lazily paced DONEs (window 30s)", func() {
		if err := g.Checkpoint(); err != nil {
			t.Error(err)
		}
	})
	if un := crashView(t, g.Path()); fmt.Sprint(un) != "[b c]" {
		t.Fatalf("crash view after Checkpoint replays %v, want [b c]", un)
	}
	if err := g.MarkProcessedAsync("b", t0); err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, 10*time.Second, "Close over lazily paced DONEs (window 30s)", func() {
		if err := g.Close(); err != nil {
			t.Error(err)
		}
	})
	re, err := Open(g.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if un := re.Unprocessed(); len(un) != 1 || un[0].Key != "c" {
		t.Fatalf("reopen after Close replays %+v, want only c", un)
	}
}
