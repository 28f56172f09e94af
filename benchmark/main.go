// Command benchmark is the repository's one benchmark: four seeded
// workloads against the hub exactly as simbad ships it, measured from
// outside through public functions and the benchmark's own channels,
// with a correctness oracle after every episode.
//
// One workload, as the driver runs it (the last line of standard output
// is the result as JSON):
//
//	go run -C benchmark simba/benchmark --workload ingest_burst --seed 1 --seconds 20 --trace 0
//
// Every workload, each in a fresh child process, measured and traced,
// as a table:
//
//	go run -C benchmark simba/benchmark --seed 1
//
// Two sets of runs of the same code compared against the bounds in
// BENCHMARK.json:
//
//	go run -C benchmark simba/benchmark --agree 10
//
// See README.md for what each metric and workload means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the gated end-to-end metrics and their units, in
// report order; BENCHMARK.json carries the same list with the bounds.
// They are the ones that repeat on a noisy shared host: set-up time
// (required), and the costs that are counts.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"allocs_per_alert", "count"},
	{"fsyncs_per_alert", "count"},
	{"wal_bytes_per_alert", "bytes"},
	{"peak_rss_mb", "MiB"},
}

// ungated are the end-to-end timings a user of the hub sees. On the
// reference host (a shared 2-vCPU VM whose disk and CPU speed wander by
// ±20 % from minute to minute) their run-to-run spread is 0.15–0.3, more
// than any bound the driver accepts, so they are measured and printed
// by every run but reported to the driver as gen.* per-layer metrics,
// from the untraced episodes of a traced run.
var ungated = [][2]string{
	{"throughput_alerts_per_s", "alerts/s"},
	{"admit_p50_ms", "ms"},
	{"admit_p95_ms", "ms"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p95_ms", "ms"},
	{"recovery_s", "s"},
	{"cpu_us_per_alert", "us"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dir      string
	scale    int
	agree    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process; empty runs every workload in child processes and prints a table")
	flag.Int64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 0, "how long one run measures; 0 takes run_seconds from BENCHMARK.json")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced set and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.dir, "dir", "", "directory for WAL and outbox files (default out/work beside the benchmark); point it at /dev/shm to take the disk out of the numbers")
	flag.IntVar(&o.scale, "scale", 1, "divide workload sizes by this (the smoke test uses 200)")
	flag.IntVar(&o.agree, "agree", 0, "run two sets of this many seeds per workload and compare their medians against the bounds in BENCHMARK.json")
	flag.Parse()
	o.scale = max(o.scale, 1)

	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.agree > 0:
		err = runAgree(o)
	default:
		err = runReport(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// workDir resolves (and creates) the directory episodes put their WAL
// under. The default stays inside the benchmark's own directory: go run
// -C benchmark starts the program there.
func workDir(o options) (string, error) {
	dir := o.dir
	if dir == "" {
		dir = filepath.Join("out", "work")
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	dir = filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// runOne measures one workload in this process for o.seconds and prints
// its result; the last line is the result as JSON.
func runOne(o options) error {
	sp, ok := findSpec(o.workload, o.scale)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = bj.RunSeconds
	}
	dir, err := workDir(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := measure(sp, o, bj, dir, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("oracle: %d of %d alerts failed", res.Failed, res.Attempted)
	}
	return nil
}

// measure runs episodes of the workload under dir until budget is
// spent (at least one; a traced run at least one untraced and one
// traced) and reduces them to a result: the end-to-end metrics, or with
// o.trace the per-layer ones.
func measure(sp spec, o options, bj *benchmarkJSON, dir string, budget time.Duration) (*result, error) {
	probe, err := fsyncProbe(dir, max(200/o.scale, 20))
	if err != nil {
		return nil, err
	}
	fmt.Printf("# workload %s seed %d seconds %.0f trace %d | %s %s/%s nproc %d GOMAXPROCS %d | WAL on %s (%s), 4 KiB write+fsync %.0f us\n",
		sp.name, o.seed, budget.Seconds(), o.trace, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), dir, medium(dir), probe)

	start := time.Now()
	traceRun := o.trace == 1
	var layer map[string]float64
	if traceRun {
		if layer, err = ladder(o.seed, dir, o.scale); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
		fmt.Printf("# layer ladder took %.1f s\n", time.Since(start).Seconds())
	}

	// A traced run alternates untraced and traced episodes, so the
	// tracing overhead is measured inside one process.
	var plain, traced []*sample
	var lastTrace *tracer
	invalid := 0
	res := &result{Metrics: make(map[string]metric)}
	var longest time.Duration
	for ep := 0; ; ep++ {
		// Stop when another episode would overrun the budget, once there
		// is the minimum to report.
		enough := len(plain) > 0 && (!traceRun || len(traced) > 0)
		if enough && time.Since(start)+longest > budget {
			break
		}
		began := time.Now()
		var tr *tracer
		if traceRun && len(plain) > len(traced) {
			tr = newTracer()
		}
		s, err := runEpisode(sp, o.seed, ep, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		longest = max(longest, time.Since(began))
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, p := range s.problems {
			fmt.Printf("# episode %d: %s\n", ep, p)
		}
		if s.invalid != "" {
			// The generator broke its own rules, so the episode says
			// nothing about the hub: run another, never keep it.
			invalid++
			fmt.Printf("# episode %d invalid, re-running: %s\n", ep, s.invalid)
			if invalid > 3+ep/2 {
				return nil, fmt.Errorf("%d of %d episodes invalid: %s", invalid, ep+1, s.invalid)
			}
			continue
		}
		if tr != nil {
			traced = append(traced, s)
			lastTrace = tr
		} else {
			plain = append(plain, s)
		}
	}
	res.Correct = res.Failed == 0

	if !traceRun {
		vals, ranges := reduce(plain), spreads(plain)
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
		}
		printTable(fmt.Sprintf("end-to-end, median of %d episodes [min max]", len(plain)), endToEnd, vals, ranges)
		printTable("end-to-end timings, not gated (gen.* in a traced run)", ungated, vals, ranges)
	} else {
		layers := make([]map[string]float64, len(traced))
		for i, s := range traced {
			layers[i] = s.layer
		}
		for name := range layers[0] {
			layer[name] = medianOf(layers, name)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		layer["runtime.gc_cycles"] = float64(ms.NumGC)
		layer["runtime.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
		layer["runtime.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20)
		layer["host.nproc"] = float64(runtime.NumCPU())
		layer["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		layer["host.fsync_probe_us"] = probe
		layer["gen.episodes"] = float64(len(plain) + len(traced))
		layer["gen.invalid_episodes"] = float64(invalid)
		layer["gen.failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		untraced := reduce(plain)
		for _, m := range ungated {
			layer["gen."+m[0]] = untraced[m[0]]
		}
		layer["trace.overhead_frac"] = 1 - reduce(traced)["throughput_alerts_per_s"]/untraced["throughput_alerts_per_s"]
		var names [][2]string
		for _, def := range bj.PerLayer {
			v, ok := layer[def.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s is in BENCHMARK.json but was not measured", def.Name)
			}
			names = append(names, [2]string{def.Name, def.Unit})
			res.Metrics[def.Name] = metric{Value: v, Unit: def.Unit}
		}
		printTable(fmt.Sprintf("per-layer, ladder + median of %d traced episodes", len(traced)), names, layer, nil)
		path := filepath.Join("out", "trace-"+sp.name+".json")
		if err := lastTrace.write(path, sp.name, o.seed, layer); err != nil {
			return nil, err
		}
		fmt.Printf("# spans of up to %d alerts written to %s\n", traceAlerts, path)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// reduce takes the median over episodes of every end-to-end reading;
// peak RSS is the process's, not an episode's.
func reduce(samples []*sample) map[string]float64 {
	per := make([]map[string]float64, len(samples))
	for i, s := range samples {
		per[i] = s.vals
	}
	out := make(map[string]float64)
	for name := range per[0] {
		out[name] = medianOf(per, name)
	}
	out["peak_rss_mb"] = peakRSSMiB()
	return out
}

// spreads returns each reading's [min max] over the episodes.
func spreads(samples []*sample) map[string][2]float64 {
	out := make(map[string][2]float64)
	for name := range samples[0].vals {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = s.vals[name]
		}
		lo, hi := minMax(xs)
		out[name] = [2]float64{lo, hi}
	}
	return out
}

func medianOf(maps []map[string]float64, key string) float64 {
	xs := make([]float64, 0, len(maps))
	for _, m := range maps {
		if v, ok := m[key]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func printTable(title string, names [][2]string, vals map[string]float64, spread map[string][2]float64) {
	fmt.Printf("# %s\n", title)
	for _, m := range names {
		if sp, ok := spread[m[0]]; ok {
			fmt.Printf("  %-34s %14.4f %-9s [%.4f %.4f]\n", m[0], vals[m[0]], m[1], sp[0], sp[1])
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m[0], vals[m[0]], m[1])
		}
	}
}
