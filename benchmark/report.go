package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkJSON mirrors the root BENCHMARK.json: the one place the
// metric names, units, directions and regression bounds are written
// down.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkJSON finds BENCHMARK.json at the repository root: one
// directory up when started by go run -C benchmark, or here when run
// from the root.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var data []byte
	var err error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found beside or above the benchmark: %w", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// child runs one workload in a fresh process (so RSS, GC state and
// pools never leak between workloads), echoes its commentary, and
// returns the result parsed from its last line.
func child(o options, workload string, seed int64, trace int, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(trace),
		"--scale", strconv.Itoa(o.scale),
	}
	if o.dir != "" {
		args = append(args, "--dir", o.dir)
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && echo {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if runErr != nil || !res.Correct {
		if !echo {
			fmt.Print(out.String()) // say which check failed
		}
		return &res, fmt.Errorf("%s seed %d: oracle failed %d of %d", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runReport is the one command that prints everything: each workload
// measured and then traced, each in its own process.
func runReport(o options) error {
	b, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = b.RunSeconds
	}
	var failed []string
	for _, w := range b.Workloads {
		fmt.Printf("\n== %s — %s\n", w.Name, w.Why)
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(o, w.Name, o.seed, trace, true); err != nil {
				fmt.Println("FAIL:", err)
				failed = append(failed, err.Error())
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is how the driver judges a metric's steadiness.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 || median(s) == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// runAgree runs two full sets of o.agree seeds on the same code, the
// second with the workload order reversed, and prints for every
// workload × end-to-end metric both medians, both quartile spreads, the
// gap between the medians in the metric's bad direction, and the bound.
// It fails if a gap or a spread (set-up time's spread excepted)
// exceeds the bound.
func runAgree(o options) error {
	b, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = b.RunSeconds
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	failed := 0
	for set := range sets {
		sets[set] = make(map[key][]float64)
		order := append(b.Workloads[:0:0], b.Workloads...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			for k := 0; k < o.agree; k++ {
				seed := o.seed + int64(set*o.agree+k)
				res, err := child(o, w.Name, seed, 0, false)
				if err != nil {
					// Keep going: the table is still worth having.
					fmt.Fprintln(os.Stderr, "FAIL:", err)
					failed++
					if res == nil {
						continue
					}
				}
				for name, m := range res.Metrics {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
		}
	}
	fmt.Printf("%-15s %-24s %12s %12s %7s %7s %7s %6s\n", "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound")
	bad := 0
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			a, bb := sets[0][key{w.Name, m.Name}], sets[1][key{w.Name, m.Name}]
			ma, mb := median(a), median(bb)
			gap := (mb - ma) / ma // how much worse the second set reads
			if m.Better == "higher" {
				gap = -gap
			}
			sa, sb := quartileSpread(a), quartileSpread(bb)
			flag := ""
			if gap > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				flag = "  OVER"
				bad++
			}
			fmt.Printf("%-15s %-24s %12.4f %12.4f %+7.3f %7.3f %7.3f %6.2f%s\n", w.Name, m.Name, ma, mb, gap, sa, sb, m.Bound, flag)
		}
	}
	if bad > 0 || failed > 0 {
		return fmt.Errorf("%d workload × metric pairs disagree beyond their bound, %d runs failed", bad, failed)
	}
	return nil
}
