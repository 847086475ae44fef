// Command perfbench is the repository's benchmark. It drives the
// simulator only through its public functions and times every layer
// from outside, around the calls it makes into that layer.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-sharing --seed 0 --seconds 15 --trace 0
//
// Each run is a closed loop in one process: the next sample starts when
// the previous one finishes. --trace 0 reports the end-to-end metrics;
// --trace 1 is the separate traced run that reports per-layer metrics.
// Every run checks its outputs (see gate.go) and exits non-zero on any
// failure. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-sharing, sim-private, verify-random or figure-grid")
	seed := fs.Uint64("seed", canonicalSeed, "workload seed; the canonical seed is checked against pinned digests")
	seconds := fs.Float64("seconds", 15, "how long the measured loop runs")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run with per-layer metrics")
	pin := fs.Bool("pin", false, "print the canonical seed's Stats digests for every workload as JSON and exit")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and the grid's result cache")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		return pinDigests(stdout, stderr, *outDir)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{workload: w.name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *traceMode == 1, outDir: *outDir}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	g, err := newGate(w.name, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	var res report
	if w.grid {
		res, err = runGrid(o, g)
	} else {
		res, err = runCells(w, o, g)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range g.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL", e)
	}
	res.failed = len(g.errs)
	return emit(stdout, w, o, res)
}

// report is what one run measured.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

// emit prints every metric with its unit, then the JSON result line.
func emit(stdout io.Writer, w workload, o options, r report) int {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%t\n", w.name, o.seed, o.seconds.Seconds(), o.traced)
	for _, n := range r.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-32s %18.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with --trace 0. A "cell" is one simulation: one
// workload under one protocol. Timings take the run's fast quartile of
// samples (see fastQuartile), ratios their median.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},           // simulated accesses per host second of simulation
	{"wall_s", "s"},                     // one closed-loop sample's calls into the simulator
	{"setup_s", "s"},                    // stream generation, NewSystem, NewChecker, cache opens
	{"cell_p50_s", "s"},                 // per-cell wall time within a sample
	{"cell_p90_s", "s"},                 // the same at the 90th percentile
	{"alloc_bytes_per_access", "bytes"}, // heap bytes allocated while simulating
	{"allocs_per_access", "allocs"},     // heap objects allocated while simulating
	{"host_mem_bytes", "bytes"},         // peak live heap at the end of a cell or pass, results still held
	{"sim_cycles", "cycles"},            // simulated execution cycles, summed over one sample's cells
	{"traffic_bytes", "bytes"},          // simulated L1 traffic, summed over one sample's cells
}

// perLayer are the traced run's metrics, named <module>.<metric>. A
// layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"engine.events_per_access", "events/access"},
	{"engine.cpu_share", "share"},
	{"engine.ns_per_event", "ns"},
	{"engine.queue_high_water", "events"},
	{"engine.zero_delay_frac", "share"},
	{"engine.far_push_frac", "share"},
	{"cache.l1_hit_rate", "share"},
	{"cache.cpu_share", "share"},
	{"cache.lookup_ns", "ns"},
	{"cache.insert_ns", "ns"},
	{"cache.blocks_in_region_ns", "ns"},
	{"noc.msgs_per_miss", "msgs/miss"},
	{"noc.flit_hops_per_access", "hops/access"},
	{"noc.cpu_share", "share"},
	{"noc.hops_ns", "ns"},
	{"noc.arrival_ns", "ns"},
	{"core.l1.cpu_share", "share"},
	{"core.dir.cpu_share", "share"},
	{"core.other.cpu_share", "share"},
	{"core.setup_s", "s"},
	{"core.run_s", "s"},
	{"directory.nack_frac", "share"},
	{"predictor.used_frac", "share"},
	{"predictor.cpu_share", "share"},
	{"predictor.predict_ns", "ns"},
	{"predictor.train_ns", "ns"},
	{"workloads.generate_s", "s"},
	{"workloads.ns_per_record", "ns"},
	{"workloads.wall_share", "share"},
	{"workloads.cpu_share", "share"},
	{"checker.s", "s"},
	{"checker.cpu_share", "share"},
	{"checker.scans_per_txn", "scans/txn"},
	{"runner.decode_cpu_share", "share"},
	{"runner.cpu_share", "share"},
	{"runner.pool_s", "s"},
	{"runner.cells_failed", "count"},
	{"resultcache.hit_frac", "share"},
	{"resultcache.payload_bytes_per_cell", "bytes"},
	{"resultcache.get_ns", "ns"},
	{"resultcache.put_ns", "ns"},
	{"resultcache.cpu_share", "share"},
	{"harness.grid_cold_s", "s"},
	{"harness.grid_warm_s", "s"},
	{"harness.render_s", "s"},
	{"harness.cpu_share", "share"},
	{"obs.cpu_share", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.alloc_cpu_share", "share"},
	{"bench.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"bench.self_s", "s"},
	{"workloads.generate.self_s", "s"},
	{"core.setup.self_s", "s"},
	{"core.run.self_s", "s"},
	{"resultcache.open.self_s", "s"},
	{"harness.collect.cold.self_s", "s"},
	{"harness.collect.warm.self_s", "s"},
	{"runner.cell.self_s", "s"},
	{"harness.render.self_s", "s"},
	{"profile.samples", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "share"},
	{"failed_frac", "share"},
}

// cpuShareMetric maps each profile layer to its share metric.
var cpuShareMetric = map[string]string{
	"engine": "engine.cpu_share", "cache": "cache.cpu_share", "noc": "noc.cpu_share",
	"core.l1": "core.l1.cpu_share", "core.dir": "core.dir.cpu_share", "core.other": "core.other.cpu_share",
	"predictor": "predictor.cpu_share", "workloads": "workloads.cpu_share", "checker": "checker.cpu_share",
	"runner": "runner.cpu_share", "resultcache": "resultcache.cpu_share", "harness": "harness.cpu_share",
	"obs": "obs.cpu_share", "runtime.gc": "runtime.gc_cpu_share", "runtime.alloc": "runtime.alloc_cpu_share",
	"bench": "bench.cpu_share", "other": "other.cpu_share",
}

// addShares records every layer's share of the traced CPU profile (the
// result decoder's share is taken over the warm pass alone, by runGrid).
func addShares(m map[string]float64, all fold) {
	for l, name := range cpuShareMetric {
		m[name] = all.share(l)
	}
	m["profile.samples"] = float64(all.total())
}

// median of a list; 0 when it is empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func secs(d time.Duration) float64 { return d.Seconds() }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

var errNoSamples = errors.New("no samples completed")
