package plog

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestLogReceivedBatchDurableAndOrdered stages a burst, verifies
// in-memory state, and replays from disk: entries must survive in
// slice order (one journal write per burst notwithstanding).
func TestLogReceivedBatchDurableAndOrdered(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	const n = 50
	entries := make([]BatchEntry, n)
	for i := range entries {
		entries[i] = BatchEntry{
			Key:     fmt.Sprintf("k%03d", i),
			Payload: []byte(fmt.Sprintf("p%03d", i)),
			At:      t0.Add(time.Duration(i) * time.Millisecond),
		}
	}
	if err := g.LogReceivedBatch(entries); err != nil {
		t.Fatal(err)
	}
	if got := g.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if snap := g.Stats().StagedBatches; snap.Count != 1 || snap.Sum != n {
		t.Fatalf("StagedBatchSizes = %+v, want one burst of %d", snap, n)
	}
	path := g.Path()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	un := l.Unprocessed()
	if len(un) != n {
		t.Fatalf("recovered %d records, want %d", len(un), n)
	}
	for i, r := range un {
		if want := fmt.Sprintf("k%03d", i); r.Key != want {
			t.Fatalf("record %d key = %q, want %q (order lost)", i, r.Key, want)
		}
	}
}

// TestLogReceivedBatchDuplicates re-submits half the burst: duplicates
// are idempotent no-ops, and an all-duplicate burst returns nil
// without staging anything.
func TestLogReceivedBatchDuplicates(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	burst := []BatchEntry{
		{Key: "a", Payload: []byte("pa"), At: t0},
		{Key: "b", Payload: []byte("pb"), At: t0},
	}
	if err := g.LogReceivedBatch(burst); err != nil {
		t.Fatal(err)
	}
	mixed := []BatchEntry{
		{Key: "b", Payload: []byte("changed"), At: t0},
		{Key: "c", Payload: []byte("pc"), At: t0},
	}
	if err := g.LogReceivedBatch(mixed); err != nil {
		t.Fatal(err)
	}
	if got := g.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	// All-duplicate burst: still succeeds, stages nothing.
	if err := g.LogReceivedBatch(burst); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Appended; got != 3 {
		t.Fatalf("Appended = %d, want 3", got)
	}
	if err := g.LogReceivedBatch([]BatchEntry{{Key: "", At: t0}}); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestMarkProcessedBatchAsync stages DONEs for a burst (with one
// unknown key mixed in), flushes via Close, and replays: processed
// entries must be gone from the recovery set, and the unknown key must
// surface a per-key error.
func TestMarkProcessedBatchAsync(t *testing.T) {
	g := openGroupTemp(t, GroupOptions{})
	entries := []BatchEntry{
		{Key: "a", Payload: []byte("pa"), At: t0},
		{Key: "b", Payload: []byte("pb"), At: t0},
		{Key: "c", Payload: []byte("pc"), At: t0},
	}
	if err := g.LogReceivedBatch(entries); err != nil {
		t.Fatal(err)
	}
	errs := g.MarkProcessedBatchAsync([]string{"a", "ghost", "c"}, t0.Add(time.Second))
	if errs == nil {
		t.Fatal("expected per-key errors for unknown key")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("known keys errored: %v", errs)
	}
	if !errors.Is(errs[1], ErrUnknownKey) {
		t.Fatalf("errs[1] = %v, want ErrUnknownKey", errs[1])
	}
	// Re-marking already-processed keys is a clean no-op.
	if errs := g.MarkProcessedBatchAsync([]string{"a", "c"}, t0.Add(2*time.Second)); errs != nil {
		t.Fatalf("re-mark errs = %v", errs)
	}
	path := g.Path()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	un := l.Unprocessed()
	if len(un) != 1 || un[0].Key != "b" {
		t.Fatalf("recovered unprocessed = %+v, want just b", un)
	}
}
