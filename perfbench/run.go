package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"protozoa/internal/core"
	"protozoa/internal/trace"
)

// minSamples keeps a quantile of samples meaningful when a sample is long.
const minSamples = 3

// cellSample is one closed-loop sample of a cell workload: every cell
// once, in order. Its wall time is the sum of its cells' calls into the
// simulator; the checks between them are the benchmark's own work.
type cellSample struct {
	wall, setup, gen, run time.Duration
	cellWalls             []float64
	allocBytes, allocs    uint64
	liveHeap              uint64 // the largest of its cells'
	simCycles, traffic    uint64
	counts                counts
	cells                 int
}

func runCellSample(cells []cellSpec, g *gate, m cellMode) cellSample {
	var s cellSample
	runtime.GC() // every sample starts from the same heap
	m.prof.begin("sample")
	sp := m.tr.begin("sample", m.sample)
	for _, c := range cells {
		r := runCell(c, m)
		s.cells++
		if r.err != nil {
			g.fail("%v", r.err)
			continue
		}
		g.check(c.label, r.digest)
		s.setup += r.setup
		s.gen += r.gen
		s.run += r.run
		s.cellWalls = append(s.cellWalls, secs(r.wall))
		s.allocBytes += r.allocBytes
		s.allocs += r.allocs
		s.liveHeap = max(s.liveHeap, r.liveHeap)
		s.wall += r.wall
		s.simCycles += r.simCycles
		s.traffic += r.traffic
		s.counts.add(r.counts)
	}
	m.tr.end(sp)
	m.prof.end()
	return s
}

// runCells runs a cell workload: one unmeasured warm-up sample, then
// samples until the measuring time is spent. The traced run splits that
// time between untraced and traced samples and then replays the layers.
func runCells(w workload, o options, g *gate) (report, error) {
	cells := w.cells(o.seed)
	rep := report{metrics: map[string]float64{}}
	next := 0
	measure := func(d time.Duration, m cellMode) []cellSample {
		var out []cellSample
		t0 := time.Now()
		for len(out) < minSamples || time.Since(t0) < d {
			m.sample = next
			next++
			s := runCellSample(cells, g, m)
			rep.attempted += s.cells
			out = append(out, s)
		}
		return out
	}
	runCellSample(cells, g, cellMode{sample: -1})
	rep.attempted += len(cells)
	next++

	if !o.traced {
		samples := measure(o.seconds, cellMode{memStats: true})
		cellEndToEnd(rep.metrics, samples)
		rep.notes = append(rep.notes, fmt.Sprintf("%d samples of %d cells after one warm-up sample; cell percentiles over each sample's cells",
			len(samples), len(cells)))
		return rep, nil
	}

	untraced := measure(o.seconds/2, cellMode{})
	tr, prof := newTracer(), newPhaseProfiler()
	traced := measure(o.seconds/2, cellMode{traced: true, tr: tr, prof: prof})
	if prof.err != nil {
		return rep, prof.err
	}
	m := rep.metrics
	addShares(m, prof.all())

	var total counts
	var gen, setup, run, wallU, wallT, genShare []float64
	var genAll time.Duration
	for _, s := range traced {
		total.add(s.counts)
		gen = append(gen, secs(s.gen))
		setup = append(setup, secs(s.setup-s.gen))
		run = append(run, secs(s.run))
		wallT = append(wallT, secs(s.wall))
		genShare = append(genShare, secs(s.gen)/secs(s.wall))
		genAll += s.gen
	}
	for _, s := range untraced {
		wallU = append(wallU, secs(s.wall))
	}
	countMetrics(m, total)
	m["core.setup_s"] = median(setup)
	m["core.run_s"] = median(run)
	m["workloads.generate_s"] = median(gen)
	m["workloads.ns_per_record"] = float64(genAll.Nanoseconds()) / float64(total.accesses)
	m["workloads.wall_share"] = median(genShare)
	traceMetrics(m, tr, len(traced), median(wallT), median(wallU))

	if cells[0].checked {
		// The checker's cost: the same streams run without it.
		unchecked := runCellSample(cells, g, cellMode{uncheck: true, sample: next})
		rep.attempted += unchecked.cells
		var runs []float64
		for _, s := range untraced {
			runs = append(runs, secs(s.run))
		}
		m["checker.s"] = median(runs) - secs(unchecked.run)
		m["checker.scans_per_txn"] = ratio(total.checks, total.txns)
	}

	finishTraced(&rep, g, o.seed, total, cells, next+1)
	rep.notes = append(rep.notes, fmt.Sprintf("%d untraced and %d traced samples of %d cells; %d CPU profile samples",
		len(untraced), len(traced), len(cells), int(m["profile.samples"])))
	return rep, tr.write(spansPath(o))
}

func spansPath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
}

// distinctStreams generates each distinct trace of a cell list once
// (the protocols of one workload share their streams).
func distinctStreams(cells []cellSpec) [][]trace.Stream {
	seen := map[string]bool{}
	var out [][]trace.Stream
	for _, c := range cells {
		name, _, _ := strings.Cut(c.label, "/")
		if !seen[name] {
			seen[name] = true
			out = append(out, c.streams())
		}
	}
	return out
}

// fastQuartile is the quantile of a run's samples its end-to-end timings
// report: the fast quartile (the 25th percentile of sample times, the
// 75th of rates). The shared host slows whole stretches of samples, in
// bursts of seconds, by up to 30%, and interference only ever adds
// time; in such periods the median sample moved 12% from run to run
// while the fast quartile moved 1%.
const fastQuartile = 0.25

// cellEndToEnd computes the end-to-end metrics of a cell workload.
func cellEndToEnd(m map[string]float64, samples []cellSample) {
	var wall, setup, aps, bpa, apa, p50, p90 []float64
	var heap uint64
	for _, s := range samples {
		heap = max(heap, s.liveHeap)
		wall = append(wall, secs(s.wall))
		setup = append(setup, secs(s.setup))
		aps = append(aps, float64(s.counts.accesses)/secs(s.run))
		bpa = append(bpa, ratio(s.allocBytes, s.counts.accesses))
		apa = append(apa, ratio(s.allocs, s.counts.accesses))
		p50 = append(p50, quantile(s.cellWalls, 0.5))
		p90 = append(p90, quantile(s.cellWalls, 0.9))
	}
	m["accesses_per_s"] = quantile(aps, 1-fastQuartile)
	m["wall_s"] = quantile(wall, fastQuartile)
	m["setup_s"] = quantile(setup, fastQuartile)
	m["cell_p50_s"] = quantile(p50, fastQuartile)
	m["cell_p90_s"] = quantile(p90, fastQuartile)
	m["alloc_bytes_per_access"] = median(bpa)
	m["allocs_per_access"] = median(apa)
	m["host_mem_bytes"] = float64(heap)
	m["sim_cycles"] = float64(samples[0].simCycles)
	m["traffic_bytes"] = float64(samples[0].traffic)
}

// countMetrics derives the per-layer ratios from summed counters.
func countMetrics(m map[string]float64, c counts) {
	m["engine.events_per_access"] = ratio(c.events, c.accesses)
	m["engine.queue_high_water"] = float64(c.highWater)
	m["engine.zero_delay_frac"] = ratio(c.zeroDelay, c.events)
	m["engine.far_push_frac"] = ratio(c.farPushes, c.events)
	m["cache.l1_hit_rate"] = ratio(c.hits, c.hits+c.misses)
	m["noc.msgs_per_miss"] = ratio(c.msgs, c.misses)
	m["noc.flit_hops_per_access"] = ratio(c.flitHops, c.accesses)
	m["directory.nack_frac"] = ratio(c.nackBytes, c.ctrlBytes)
	m["predictor.used_frac"] = ratio(c.usedBytes, c.usedBytes+c.unusedBytes)
}

// spanLayers are the spans around calls into a layer; each reports its
// self time per traced sample as <span>.self_s.
var spanLayers = []string{
	"workloads.generate", "core.setup", "core.run", "resultcache.open",
	"harness.collect.cold", "harness.collect.warm", "runner.cell", "harness.render",
}

// traceMetrics reports the spans' count, each layer span's self time and
// the benchmark's own (the sample and cell spans') per traced sample,
// and the tracing overhead: traced minus untraced median sample wall
// time.
func traceMetrics(m map[string]float64, tr *tracer, samples int, tracedWall, untracedWall float64) {
	self := selfTimes(tr.spans)
	for _, name := range spanLayers {
		m[name+".self_s"] = secs(self[name]) / float64(samples)
	}
	m["bench.self_s"] = secs(self["sample"]+self["cell"]) / float64(samples)
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.overhead_s"] = tracedWall - untracedWall
	m["trace.overhead_frac"] = (tracedWall - untracedWall) / untracedWall
}

// msgLogCap is how many messages the noc replay captures from one cell.
const msgLogCap = 1 << 14

// finishTraced ends a traced run: it captures one cell's messages with
// the public message log for the noc replay, runs the layer replays on
// the workload's inputs and reports the share of failed cells.
func finishTraced(rep *report, g *gate, seed uint64, c counts, cells []cellSpec, sample int) {
	var msgs []core.MsgEvent
	r := runCell(cells[0], cellMode{msgLog: &msgs, sample: sample})
	rep.attempted++
	if r.err != nil {
		g.fail("%v", r.err)
	} else {
		g.check(cells[0].label, r.digest)
	}
	replays(rep.metrics, seed, c, distinctStreams(cells), msgs)
	rep.metrics["failed_frac"] = ratio(uint64(len(g.errs)), uint64(rep.attempted))
}

// runGrid runs the figure-grid workload: samples until the measuring
// time is spent, at least two. The traced run splits that time between
// untraced and traced samples, then runs every cell directly for the
// counters the pool does not report, and replays the layers.
func runGrid(o options, g *gate) (report, error) {
	rep := report{metrics: map[string]float64{}}
	gr := newGrid(o.seed, filepath.Join(o.outDir, "grid-cache"))
	defer os.RemoveAll(gr.cacheDir)
	next := 0
	measure := func(d time.Duration, tr *tracer, prof *phaseProfiler, minN int) []gridSample {
		var out []gridSample
		t0 := time.Now()
		for n := 0; n < minN || time.Since(t0) < d; n++ {
			s := gr.sample(next, tr, prof)
			next++
			rep.attempted += 2 * len(gr.cells)
			gr.check(g, s)
			if s.cold.err == nil && s.warm.err == nil {
				out = append(out, s)
			}
		}
		return out
	}
	m := rep.metrics
	if !o.traced {
		samples := measure(o.seconds, nil, nil, 2)
		var wall, setup, aps, bpa, apa, p50, p90 []float64
		var heap uint64
		for _, s := range samples {
			heap = max(heap, s.liveHeap)
			wall = append(wall, secs(s.wall))
			setup = append(setup, secs(s.setup))
			aps = append(aps, float64(s.accesses)/secs(s.cold.wall))
			bpa = append(bpa, ratio(s.allocBytes, s.accesses))
			apa = append(apa, ratio(s.allocs, s.accesses))
			var cells []float64
			for _, d := range s.cold.clock.walls() {
				cells = append(cells, secs(d))
			}
			p50 = append(p50, quantile(cells, 0.5))
			p90 = append(p90, quantile(cells, 0.9))
		}
		if len(samples) == 0 {
			return rep, errNoSamples
		}
		m["accesses_per_s"] = quantile(aps, 1-fastQuartile)
		m["wall_s"] = quantile(wall, fastQuartile)
		m["setup_s"] = quantile(setup, fastQuartile)
		m["cell_p50_s"] = quantile(p50, fastQuartile)
		m["cell_p90_s"] = quantile(p90, fastQuartile)
		m["alloc_bytes_per_access"] = median(bpa)
		m["allocs_per_access"] = median(apa)
		m["host_mem_bytes"] = float64(heap)
		m["sim_cycles"] = float64(samples[0].simCycles)
		m["traffic_bytes"] = float64(samples[0].traffic)
		cold, warm := gridPassTimes(samples)
		rep.notes = append(rep.notes,
			fmt.Sprintf("%d samples; cell percentiles over each sample's %d cold-pass cells on %d jobs", len(samples), len(gr.cells), gridJobs()),
			fmt.Sprintf("grid_cold_s %.6g s, grid_warm_s %.6g s (medians)", cold, warm))
		return rep, nil
	}

	untraced := measure(o.seconds/2, nil, nil, 1)
	tr, prof := newTracer(), newPhaseProfiler()
	traced := measure(o.seconds/2, tr, prof, 1)
	if prof.err != nil {
		return rep, prof.err
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return rep, errNoSamples
	}
	addShares(m, prof.all())
	m["runner.decode_cpu_share"] = prof.folds["warm"].share("runner.decode")
	var wallU, wallT, gen, setup, pool, render, genShare []float64
	var genAll time.Duration
	var accAll uint64
	for _, s := range untraced {
		wallU = append(wallU, secs(s.wall))
	}
	for _, s := range traced {
		wallT = append(wallT, secs(s.wall))
		gen = append(gen, secs(s.gen))
		setup = append(setup, secs(s.setup-s.gen-s.cold.open-s.warm.open))
		pool = append(pool, secs(s.cold.wall+s.warm.wall))
		render = append(render, secs(s.render))
		genShare = append(genShare, secs(s.gen)/secs(s.wall))
		genAll += s.gen
		accAll += s.accesses
		m["runner.cells_failed"] += float64(s.cold.clock.summary.Failed + s.warm.clock.summary.Failed)
	}
	last := traced[len(traced)-1]
	m["harness.grid_cold_s"], m["harness.grid_warm_s"] = gridPassTimes(untraced)
	m["harness.render_s"] = median(render)
	m["runner.pool_s"] = median(pool)
	m["resultcache.hit_frac"] = ratio(last.warm.counters.Hits(), last.warm.counters.Hits()+last.warm.counters.Misses)
	m["resultcache.payload_bytes_per_cell"] = ratio(last.cold.counters.BytesWritten, last.cold.counters.Puts)
	m["workloads.generate_s"] = median(gen)
	m["workloads.ns_per_record"] = float64(genAll.Nanoseconds()) / float64(accAll)
	m["workloads.wall_share"] = median(genShare)
	m["core.setup_s"] = median(setup)
	traceMetrics(m, tr, len(traced), median(wallT), median(wallU))

	// The engine's queue paths and each machine's run time are not
	// visible through the pool, so every cell of the matrix also runs
	// directly, one after another.
	probe := runCellSample(gr.cells, g, cellMode{traced: true, sample: next})
	rep.attempted += probe.cells
	countMetrics(m, probe.counts)
	m["core.run_s"] = secs(probe.run)
	var err error
	if m["resultcache.get_ns"], m["resultcache.put_ns"], err = replayResultCache(gr.cacheDir, filepath.Join(o.outDir, "replay-cache")); err != nil {
		return rep, err
	}
	finishTraced(&rep, g, o.seed, probe.counts, gr.cells, next+1)
	rep.notes = append(rep.notes, fmt.Sprintf("%d untraced and %d traced samples; %d CPU profile samples, %d in the warm pass",
		len(untraced), len(traced), int(m["profile.samples"]), prof.folds["warm"].total()))
	return rep, tr.write(spansPath(o))
}
