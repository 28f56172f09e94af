// Micro-benchmarks of the paper-substrate hot paths nothing else
// measures: the Figure 4 delivery-mode document, the soft-state store
// and WISH localization. The hub, its journal, the pipeline, the alert
// codec and the executor are measured by benchmark/ (DESIGN.md
// "removed → measured/asserted by"); the paper's tables are printed by
// cmd/simba-bench and asserted by internal/harness.
package simba_test

import (
	"fmt"
	"testing"
	"time"

	"simba/internal/clock"
	"simba/internal/dmode"
	"simba/internal/harness"
	"simba/internal/sss"
)

// BenchmarkF4DeliveryModeCodec — Figure 4's XML document round trip.
func BenchmarkF4DeliveryModeCodec(b *testing.B) {
	m := dmode.Figure4()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := m.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dmode.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSSWrite — soft-state store update + event dispatch.
func BenchmarkSSSWrite(b *testing.B) {
	sim := clock.NewSim(time.Time{})
	s, err := sss.NewStore(sim, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Define(sss.Spec{Name: "v", RefreshEvery: time.Hour, MaxMissed: 3}); err != nil {
		b.Fatal(err)
	}
	events := 0
	s.Subscribe("", func(sss.Event) { events++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write("v", fmt.Sprintf("state-%d", i&1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWISHLocate — fingerprint localization over the grid.
func BenchmarkWISHLocate(b *testing.B) {
	tb, err := harness.NewTestbed(harness.Options{TempDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close() // never started, so only the world's gateway runs
	strengths := []float64{-60, -70, -65, -72}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Wish.Locate(strengths); err != nil {
			b.Fatal(err)
		}
	}
}
