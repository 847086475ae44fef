package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/resultcache"
	"protozoa/internal/runner"
	"protozoa/internal/stats"
	"protozoa/internal/workloads"
)

// The figure-grid workload: the paper's Figure 9-15 matrix at 16 cores,
// scale 1, run through protozoa.Collect (harness.Collect) on a pool of
// nproc workers. The cold pass starts from an empty cache directory;
// the warm pass opens a fresh cache on the same directory, so every
// cell is a disk hit, and renders the figures.

const gridScale = 1

// gridJobs keeps at most nproc cells in flight: a closed loop in which
// a worker takes the next cell as soon as its previous one finishes.
func gridJobs() int { return runtime.NumCPU() }

// gridCells lists the matrix as directly runnable cells, labelled and
// ordered as the pool reports them: workloads alphabetically, then
// protocols in figure order.
func gridCells(seed uint64) []cellSpec {
	return paperCells(seed, gridScale, core.AllProtocols, workloads.Names()...)
}

func labelsOf(cells []cellSpec) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.label
	}
	return out
}

// renderFigures renders Figures 9-15 from a collected matrix.
func renderFigures(m *harness.Matrix) string {
	return strings.Join([]string{m.Fig9Traffic(), m.Fig10Control(), m.Fig11Owners(),
		m.Fig12BlockDist(), m.Fig13MPKI(), m.Fig14Exec(), m.Fig15FlitHops()}, "\n")
}

// cellClock times the pool's cells from its progress lines. Collect
// reports nothing per cell but those lines, so the clock stamps each
// completion line as it arrives. The pool hands cells to free workers
// in index order, so the first jobs cells start with the pass and each
// later cell starts when a completion frees a worker.
type cellClock struct {
	mu      sync.Mutex
	index   map[string]int
	start   []time.Time
	end     []time.Time
	next    int
	failed  int
	summary runner.Summary
	partial []byte
	err     error
}

func newCellClock(labels []string, jobs int, t0 time.Time) *cellClock {
	c := &cellClock{index: map[string]int{}, start: make([]time.Time, len(labels)), end: make([]time.Time, len(labels))}
	for i, l := range labels {
		c.index[l] = i
	}
	c.next = min(jobs, len(labels))
	for i := 0; i < c.next; i++ {
		c.start[i] = t0
	}
	return c
}

// Write receives the pool's progress output: one line per completed
// cell, "[i/n] label: status (events, wall)", then the summary line.
func (c *cellClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partial = append(c.partial, p...)
	for {
		i := bytes.IndexByte(c.partial, '\n')
		if i < 0 {
			break
		}
		c.line(string(c.partial[:i]), now)
		c.partial = c.partial[i+1:]
	}
	return len(p), nil
}

func (c *cellClock) line(l string, now time.Time) {
	if !strings.HasPrefix(l, "[") {
		var s runner.Summary
		if _, err := fmt.Sscanf(l, "%d cells (%d failed, %d cached), %d events, %d simulated cycles",
			&s.Cells, &s.Failed, &s.Cached, &s.Events, &s.SimCycles); err != nil {
			c.err = fmt.Errorf("unparsed pool summary %q: %v", l, err)
		}
		c.summary = s
		return
	}
	_, rest, _ := strings.Cut(l, "] ")
	label, status, _ := strings.Cut(rest, ": ")
	i, ok := c.index[label]
	if !ok {
		c.err = fmt.Errorf("unknown cell in progress line %q", l)
		return
	}
	c.end[i] = now
	if strings.HasPrefix(status, "FAIL") {
		c.failed++
	}
	if c.next < len(c.start) {
		c.start[c.next] = now
		c.next++
	}
}

// walls returns each cell's wall time.
func (c *cellClock) walls() []time.Duration {
	out := make([]time.Duration, len(c.start))
	for i := range out {
		out[i] = c.end[i].Sub(c.start[i])
	}
	return out
}

// gridPass is one Collect call's outcome.
type gridPass struct {
	open     time.Duration // cache open
	wall     time.Duration // the Collect call
	m        *harness.Matrix
	clock    *cellClock
	counters resultcache.Counters
	err      error
}

// grid is the figure-grid workload for one seed: its cells and the
// cache directory its passes share.
type grid struct {
	seed     uint64
	cells    []cellSpec
	labels   []string
	cacheDir string
}

func newGrid(seed uint64, cacheDir string) *grid {
	cells := gridCells(seed)
	return &grid{seed: seed, cells: cells, labels: labelsOf(cells), cacheDir: cacheDir}
}

// collect runs one pass of the matrix against the cache directory.
func (gr *grid) collect(tr *tracer, sample int, name string) gridPass {
	var p gridPass
	t0 := time.Now()
	ops := tr.begin("resultcache.open", sample)
	c, err := runner.OpenCache(true, gr.cacheDir)
	tr.end(ops)
	p.open = time.Since(t0)
	if err != nil {
		p.err = err
		return p
	}
	sp := tr.begin(name, sample)
	t0 = time.Now()
	p.clock = newCellClock(gr.labels, gridJobs(), t0)
	p.m, p.err = harness.Collect(harness.Options{
		Cores: gr.cells[0].cfg.Cores, Scale: gridScale, TraceSeed: gr.seed,
		Jobs: gridJobs(), Cache: c, Progress: p.clock,
	})
	p.wall = time.Since(t0)
	tr.end(sp)
	if p.clock.err != nil && p.err == nil {
		p.err = p.clock.err
	}
	for i := range p.clock.start {
		tr.add("runner.cell", sample, sp, p.clock.start[i], p.clock.end[i])
	}
	p.counters = c.Counters()
	return p
}

// setup measures the set-up the grid's cells perform, by making the
// calls each cell's Build makes (stream generation and NewSystem) for
// every cell, outside the pool.
func (gr *grid) setup(tr *tracer, sample int) (gen, setup time.Duration, err error) {
	for _, c := range gr.cells {
		t0 := time.Now()
		gs := tr.begin("workloads.generate", sample)
		streams := c.streams()
		tr.end(gs)
		t1 := time.Now()
		ss := tr.begin("core.setup", sample)
		_, err := core.NewSystem(c.cfg, streams)
		tr.end(ss)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", c.label, err)
		}
		gen += t1.Sub(t0)
		setup += time.Since(t0)
	}
	return gen, setup, nil
}

// gridSample is one closed-loop figure-grid sample: set-up, cold pass,
// warm pass and render. Its wall time is the sum of those calls; the
// checks between them are the benchmark's own work.
type gridSample struct {
	wall, setup, gen   time.Duration
	cold, warm         gridPass
	render             time.Duration
	coldFigs, warmFigs string
	allocBytes, allocs uint64 // during the cold pass
	liveHeap           uint64 // after either pass, with its matrix still held

	accesses, simCycles, traffic uint64 // summed over the cold pass's cells

	coldDigests, warmDigests map[string]string // Stats digest per cell label
}

// summarize keeps what the checks and metrics need from a pass's
// matrix: its figures, per-cell digests and summed counts. The matrix
// itself is released before the next pass, so two are never live.
func (s *gridSample) summarize(p *gridPass, labels []string) (figs string, digests map[string]string) {
	digests = map[string]string{}
	for _, l := range labels {
		st := cellStats(p.m, l)
		digests[l] = digest(st)
		if p == &s.cold {
			s.accesses += st.Accesses
			s.simCycles += st.ExecCycles
			s.traffic += st.TrafficTotal()
		}
	}
	figs = renderFigures(p.m)
	p.m = nil
	return figs, digests
}

// sample runs one figure-grid sample from an empty cache directory.
func (gr *grid) sample(sample int, tr *tracer, prof *phaseProfiler) gridSample {
	var s gridSample
	if err := os.RemoveAll(gr.cacheDir); err != nil {
		s.cold.err = err
		return s
	}
	runtime.GC()
	ss := tr.begin("sample", sample)
	defer tr.end(ss)
	var err error
	prof.begin("setup")
	s.gen, s.setup, err = gr.setup(tr, sample)
	prof.end()
	if err != nil {
		s.cold.err = err
		return s
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prof.begin("cold")
	s.cold = gr.collect(tr, sample, "harness.collect.cold")
	prof.end()
	runtime.ReadMemStats(&after)
	s.allocBytes, s.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if s.cold.err != nil {
		return s
	}
	s.liveHeap = liveHeap()
	s.coldFigs, s.coldDigests = s.summarize(&s.cold, gr.labels)
	runtime.GC()
	prof.begin("warm")
	s.warm = gr.collect(tr, sample, "harness.collect.warm")
	if s.warm.err == nil {
		rs := tr.begin("harness.render", sample)
		t1 := time.Now()
		s.warmFigs = renderFigures(s.warm.m)
		s.render = time.Since(t1)
		tr.end(rs)
	}
	prof.end()
	s.setup += s.cold.open + s.warm.open
	s.wall = s.setup + s.cold.wall + s.warm.wall + s.render
	if s.warm.err == nil {
		s.liveHeap = max(s.liveHeap, liveHeap())
		_, s.warmDigests = s.summarize(&s.warm, gr.labels)
	}
	return s
}

// cellStats returns a matrix cell by its pool label.
func cellStats(m *harness.Matrix, label string) *stats.Stats {
	w, p, _ := strings.Cut(label, "/")
	for _, proto := range m.Protocols {
		if proto.String() == p {
			return m.Get(w, proto)
		}
	}
	return nil
}

// gridPassTimes returns the median cold and warm Collect times.
func gridPassTimes(samples []gridSample) (cold, warm float64) {
	var c, w []float64
	for _, s := range samples {
		if s.cold.err == nil && s.warm.err == nil {
			c = append(c, secs(s.cold.wall))
			w = append(w, secs(s.warm.wall))
		}
	}
	return median(c), median(w)
}

// check gates one grid sample: every cold cell's Stats digest, warm
// cells identical to cold ones and all answered from disk, and cold and
// warm figures byte-identical.
func (gr *grid) check(g *gate, s gridSample) {
	if s.cold.err != nil {
		g.fail("cold pass: %v", s.cold.err)
		return
	}
	if s.warm.err != nil {
		g.fail("warm pass: %v", s.warm.err)
		return
	}
	for _, l := range gr.labels {
		d := s.coldDigests[l]
		if !g.check(l, d) {
			continue
		}
		if wd := s.warmDigests[l]; wd != d {
			g.fail("%s: warm-pass stats digest %.12s differs from the cold pass %.12s", l, wd, d)
		}
	}
	if c := s.warm.counters; c.DiskHits != uint64(len(gr.labels)) || c.Misses != 0 {
		g.fail("warm pass: %d disk hits and %d misses for %d cells", c.DiskHits, c.Misses, len(gr.labels))
	}
	if s.coldFigs != s.warmFigs {
		g.fail("figures 9-15 rendered from the warm pass differ from the cold pass")
	}
}
