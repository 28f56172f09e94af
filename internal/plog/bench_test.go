package plog

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// BenchmarkLogAppend measures the per-append cost of the journal
// encoder on the plain (fsync-per-append) log: one LogReceived plus one
// MarkProcessed per iteration. The figure of merit is allocs/op — the
// encoder should reuse one append buffer instead of allocating
// per-line strings.
func BenchmarkLogAppend(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.plog"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := []byte("subject=quote-update source=portal urgency=normal body=MSFT+0.42")
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%d\x1fa-%d", i%1024, i)
	}
	at := time.Date(2001, 3, 26, 9, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.LogReceived(keys[i], payload, at); err != nil {
			b.Fatal(err)
		}
		if err := l.MarkProcessed(keys[i], at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogSustained pushes ~200k alerts through a group-commit log
// and reports what segmentation buys on a long-lived journal: bounded
// disk (segments + checkpoint instead of one ever-growing file) and
// bounded reopen time (checkpoint load + short tail replay instead of a
// full scan). The unbounded sub-benchmark is the pre-segmentation
// configuration, kept as the baseline.
func BenchmarkLogSustained(b *testing.B) {
	const alerts = 200_000
	run := func(b *testing.B, opts Options) {
		payload := []byte("subject=quote-update source=portal urgency=normal body=MSFT+0.42")
		at := time.Date(2001, 3, 26, 9, 0, 0, 0, time.UTC)
		for n := 0; n < b.N; n++ {
			path := filepath.Join(b.TempDir(), "sustained.plog")
			g, err := OpenGroup(path, GroupOptions{Log: opts})
			if err != nil {
				b.Fatal(err)
			}
			const workers = 64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < alerts; i += workers {
						key := fmt.Sprintf("user-%d\x1fa-%d", i%4096, i)
						if err := g.LogReceived(key, payload, at); err != nil {
							b.Error(err)
							return
						}
						if err := g.MarkProcessedAsync(key, at); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}

			st := func() Stats {
				l, err := OpenGroup(path, GroupOptions{Log: opts})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				return l.Stats()
			}
			start := time.Now()
			s := st()
			reopen := time.Since(start)
			if s.Total != alerts {
				b.Fatalf("reopened Total = %d, want %d", s.Total, alerts)
			}
			b.ReportMetric(float64(reopen.Milliseconds()), "reopen-ms")
			b.ReportMetric(float64(s.DiskBytes)/(1<<20), "disk-MB")
			b.ReportMetric(float64(s.SegmentsReplayed), "segs-replayed")
		}
	}
	b.Run("segmented", func(b *testing.B) {
		run(b, Options{SegmentBytes: 4 << 20, CheckpointEvery: 50_000})
	})
	b.Run("unbounded", func(b *testing.B) {
		// Pre-segmentation behavior: one giant segment, no checkpoints,
		// no sweep — recovery rescans everything.
		run(b, Options{SegmentBytes: 1 << 40, SweepEvery: -1})
	})
}
