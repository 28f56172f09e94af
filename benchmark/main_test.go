package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs every workload and the layer ladder once at 1/200
// size, measured and traced, and checks that what the program emits is
// what BENCHMARK.json promises: every metric present and finite, every
// end-to-end metric non-zero, every name well-formed, the oracle
// passing. It keeps the benchmark compiling and honest against hub and
// plog API changes:
//
//	go -C benchmark test .
func TestSmoke(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{bj.EndToEnd, bj.PerLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range bj.EndToEnd {
		if d.Name != endToEnd[i][0] || d.Unit != endToEnd[i][1] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, d.Name, d.Unit, endToEnd[i][0], endToEnd[i][1])
		}
	}
	all := specs(200)
	if len(bj.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(all))
	}
	for i, sp := range all {
		if w := bj.Workloads[i]; w.Name != sp.name || w.Why != sp.why || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or the reasons differ)", i, w.Name, sp.name)
		}
		for trace, want := range [][]metricDef{bj.EndToEnd, bj.PerLayer} {
			res, err := measure(sp, options{seed: 1, trace: trace, scale: 200}, bj, t.TempDir(), 0)
			if err != nil {
				t.Fatalf("%s trace %d: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: oracle failed %d of %d", sp.name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics emitted, want %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: %s not emitted", sp.name, trace, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit:
					t.Errorf("%s trace %d: %s = %v %s", sp.name, trace, d.Name, m.Value, m.Unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	ys := []float64{10, 12, 11, 13, 30, 12, 11} // quartiles 11, 12, 13
	if got := quartileSpread(ys); math.Abs(got-2.0/12) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 2.0/12)
	}
}
