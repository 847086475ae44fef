package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"protozoa/internal/stats"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the benchmark's code must
// agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesValid(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: invalid or repeated name %q", kind, d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: invalid unit %q for %s", kind, d.unit, d.name)
			}
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s #%d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, names[i], units[i])
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)

	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload #%d: BENCHMARK.json %q, code %q", i, w.Name, allWorkloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestDigestCheckFailsOnPerturbedStats(t *testing.T) {
	st := &stats.Stats{Accesses: 100, L1Misses: 7, PerCore: make([]stats.CoreStats, 2)}
	st.ControlBytes[stats.ClassNACK] = 16
	pinned := &gate{pinned: map[string]string{"w/MESI": digest(st)}, seen: map[string]string{}}
	if !pinned.check("w/MESI", digest(st)) {
		t.Fatalf("unperturbed stats failed the pinned check: %v", pinned.errs)
	}
	repeat := &gate{seen: map[string]string{}}
	if !repeat.check("w/MESI", digest(st)) {
		t.Fatalf("first repeat failed: %v", repeat.errs)
	}
	for name, perturb := range map[string]func(*stats.Stats){
		"aggregate": func(s *stats.Stats) { s.L1Misses++ },
		"per-core":  func(s *stats.Stats) { s.PerCore[1].Hits++ },
		"array":     func(s *stats.Stats) { s.ControlBytes[stats.ClassNACK]-- },
	} {
		p := *st
		p.PerCore = append([]stats.CoreStats(nil), st.PerCore...)
		perturb(&p)
		if pinned.check("w/MESI", digest(&p)) {
			t.Errorf("%s perturbation passed the pinned check", name)
		}
		if repeat.check("w/MESI", digest(&p)) {
			t.Errorf("%s perturbation passed the repeat check", name)
		}
	}
	if pinned.check("w/unknown", digest(st)) {
		t.Error("a cell with no pinned digest passed")
	}
}

func TestSpanSelfTimeNeverNegative(t *testing.T) {
	// Overlapping children, one reaching past its parent.
	spans := []span{
		{ID: 0, Parent: -1, Name: "p", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "c", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "c", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self["p"] != 50 || self["c"] != 80 {
		t.Errorf("self times %v, want p=50 c=80", self)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		spans := []span{{ID: 0, Parent: -1, Name: "root", Start: 0, End: 1000}}
		for i := 1; i < 30; i++ {
			parent := rng.Intn(i)
			p := spans[parent]
			start := p.Start + rng.Int63n(p.End-p.Start+1)
			end := start + rng.Int63n(p.End-start+200)
			spans = append(spans, span{ID: i, Parent: parent, Name: "n", Start: start, End: end})
		}
		for name, d := range selfTimes(spans) {
			if d < 0 {
				t.Fatalf("trial %d: %s self time %v < 0", trial, name, d)
			}
		}
	}

	// Spans recorded through the tracer nest as begun.
	tr := newTracer()
	outer := tr.begin("outer", 0)
	inner := tr.begin("inner", 0)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents %d, %d", tr.spans[inner].Parent, tr.spans[outer].Parent)
	}
	for name, d := range selfTimes(tr.spans) {
		if d < 0 {
			t.Errorf("%s self time %v < 0", name, d)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []frame
		want   string
	}{
		{[]frame{{fn: "protozoa/internal/engine.(*Engine).Step"}, {fn: "main.runCell"}}, "engine"},
		{[]frame{{fn: "protozoa/internal/mem.Range.Words"}, {fn: "protozoa/internal/core.(*l1Ctrl).recv", file: "/r/internal/core/l1.go"}}, "core.l1"},
		{[]frame{{fn: "protozoa/internal/core.(*dirSlice).process", file: "/r/internal/core/dir.go"}}, "core.dir"},
		{[]frame{{fn: "runtime.mapaccess1"}, {fn: "protozoa/internal/core.(*Checker).checkSWMR", file: "/r/internal/core/checker.go"}}, "checker"},
		{[]frame{{fn: "runtime.mallocgc"}, {fn: "runtime.growslice"}, {fn: "protozoa/internal/cache.(*Cache).Insert"}}, "runtime.alloc"},
		{[]frame{{fn: "runtime.scanobject"}, {fn: "runtime.gcDrain"}, {fn: "runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{[]frame{{fn: "encoding/json.(*decodeState).object"}, {fn: "protozoa/internal/runner.decodeResult"}}, "runner.decode"},
		{[]frame{{fn: "protozoa/internal/trace.(*RNG).Next"}}, "workloads"},
		{[]frame{{fn: "runtime.futex"}}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// burn keeps the CPU busy in a benchmark frame.
func burn(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink += burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.total() == 0 {
		t.Fatal("no samples decoded")
	}
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestCellClock(t *testing.T) {
	t0 := time.Now()
	c := newCellClock([]string{"a/MESI", "a/MW", "b/MESI"}, 2, t0)
	// Cells 0 and 1 start with the pass; cell 2 starts when cell 1 ends.
	c.line("[1/3] a/MW: ok (10 events, 5ms)", t0.Add(5*time.Millisecond))
	c.line("[2/3] a/MESI: cached (0 events, 7ms)", t0.Add(7*time.Millisecond))
	c.line("[3/3] b/MESI: FAIL: b/MESI: core: deadlock (3 events, 9ms)", t0.Add(14*time.Millisecond))
	c.line("3 cells (1 failed, 1 cached), 13 events, 40 simulated cycles, 14ms wall on 2 jobs", t0.Add(14*time.Millisecond))
	want := []time.Duration{7 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	for i, d := range c.walls() {
		if d != want[i] {
			t.Errorf("cell %d wall %v, want %v", i, d, want[i])
		}
	}
	if c.err != nil || c.failed != 1 || c.summary.Cells != 3 || c.summary.Failed != 1 || c.summary.Events != 13 {
		t.Errorf("err %v, failed %d, summary %+v", c.err, c.failed, c.summary)
	}
	c.line("[1/1] nope: ok (1 events, 1ms)", t0)
	if c.err == nil {
		t.Error("an unknown cell label was accepted")
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks the result line and the contrasts the workloads
// were chosen to show.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	traced := map[string]map[string]float64{}
	for _, w := range allWorkloads {
		for _, mode := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "0", "--seconds", "1", "--trace", mode, "--out", out}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v\n%s", w.name, mode, err, stderr.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v\n%s", w.name, mode, code, res, stderr.String())
			}
			defs := endToEnd
			if mode == "1" {
				defs = perLayer
				traced[w.name] = map[string]float64{}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or unit %q", w.name, mode, d.name, m.Unit)
				}
				if mode == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
				if mode == "1" {
					traced[w.name][d.name] = m.Value
				}
			}
		}
	}
	share := func(w string, names ...string) float64 {
		var s float64
		for _, n := range names {
			s += traced[w][n]
		}
		return s
	}
	if v := share("verify-random", "checker.cpu_share"); v < 0.5 {
		t.Errorf("checker share on verify-random %.3f, want it dominant", v)
	}
	for _, w := range []string{"sim-sharing", "sim-private", "figure-grid"} {
		if v := share(w, "checker.cpu_share"); v != 0 {
			t.Errorf("checker share on %s %.3f, want 0", w, v)
		}
	}
	if s, p := share("sim-sharing", "noc.cpu_share", "core.dir.cpu_share"), share("sim-private", "noc.cpu_share", "core.dir.cpu_share"); s <= p {
		t.Errorf("noc+core.dir share: sim-sharing %.3f not above sim-private %.3f", s, p)
	}
	if s, p := share("sim-sharing", "workloads.wall_share"), share("sim-private", "workloads.wall_share"); p <= s {
		t.Errorf("generation share of wall: sim-private %.3f not above sim-sharing %.3f", p, s)
	}
	if v := share("figure-grid", "runner.decode_cpu_share"); v < 0.5 {
		t.Errorf("decode share of the warm pass %.3f, want it dominant", v)
	}
}
