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
