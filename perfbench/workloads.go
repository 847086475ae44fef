package main

import (
	"fmt"
	"runtime"
	"time"

	"protozoa/internal/core"
	"protozoa/internal/mem"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// canonicalSeed is the default --seed. It selects the canonical
// workload traces (trace seed 0) and protozoa-verify's default random
// seed, and it is the seed digests.json pins.
const canonicalSeed = 0

// verifySeedBase offsets --seed into the random tester's seed space, so
// the canonical seed reproduces protozoa-verify's default run.
const verifySeedBase = 2013

// workload is one named input set. Cell workloads run their cells one
// after another in each sample; figure-grid runs the paper's matrix
// through the runner pool instead.
type workload struct {
	name string
	why  string
	grid bool
	// cells lists the runs of one sample for a seed (cell workloads).
	cells func(seed uint64) []cellSpec
}

var allWorkloads = []workload{
	{
		name: "sim-sharing",
		why: "coherence-heavy paper workloads (canneal, barnes, rev-index) under MESI and Protozoa-MW: " +
			"misses, invalidations and NACKs load the controllers, engine, mesh and, under MW, the predictor",
		cells: func(seed uint64) []cellSpec {
			return paperCells(seed, 1, simProtocols, "canneal", "barnes", "rev-index")
		},
	},
	{
		name: "sim-private",
		why: "high-locality, nearly unshared workloads (swaptions, matrix-multiply, word-count at scale 8): " +
			"the L1 hit path, engine and trace generation dominate; mesh and directory changes should not show",
		cells: func(seed uint64) []cellSpec {
			return paperCells(seed, 8, simProtocols, "swaptions", "matrix-multiply", "word-count")
		},
	},
	{
		name: "verify-random",
		why: "the protozoa-verify random tester with the checker attached: 16 cores on 16 contended regions, " +
			"40% stores, all four protocols; the checker and the transient-state paths dominate",
		cells: verifyCells,
	},
	{
		name: "figure-grid",
		why: "the Fig 9-15 matrix (28 workloads x 4 protocols, 16 cores) through protozoa.Collect with an " +
			"on-disk result cache, cold then warm: the only workload that runs runner, resultcache and harness",
		grid: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// cellSpec is one simulation: a machine configuration and the
// generator of its per-core streams.
type cellSpec struct {
	label   string
	cfg     core.Config
	streams func() []trace.Stream
	checked bool // attach the random tester's checker
}

var simProtocols = []core.Protocol{core.MESI, core.ProtozoaMW}

// paperCells runs each named suite workload under each protocol on the
// paper's 16-core machine, with the seed as the trace seed, in the
// order Collect hands a matrix to its pool.
func paperCells(seed uint64, scale int, protocols []core.Protocol, names ...string) []cellSpec {
	var out []cellSpec
	for _, n := range names {
		spec := workloads.MustGet(n)
		for _, p := range protocols {
			out = append(out, cellSpec{
				label:   n + "/" + p.String(),
				cfg:     core.DefaultConfig(p),
				streams: func() []trace.Stream { return spec.StreamsSeeded(16, scale, seed) },
			})
		}
	}
	return out
}

// The random tester's stream shape, as protozoa-verify and the core
// package's million-access stress test build it; perCore is sized so a
// sample of all four protocols takes about a second.
const (
	verifyCores    = 16
	verifyRegions  = 16
	verifyStorePct = 40
	verifyPerCore  = 500
)

func verifyCells(seed uint64) []cellSpec {
	var out []cellSpec
	for _, p := range core.AllProtocols {
		cfg := core.DefaultConfig(p)
		// The stress test's livelock watchdog.
		cfg.MaxEvents = uint64(verifyCores*verifyPerCore)*40 + 1_000_000
		out = append(out, cellSpec{
			label:   "verify/" + p.String(),
			cfg:     cfg,
			checked: true,
			streams: func() []trace.Stream { return randomStreams(verifySeedBase + seed) },
		})
	}
	return out
}

// randomStreams builds the random tester's seeded load/store streams
// over a small contended region pool.
func randomStreams(seed uint64) []trace.Stream {
	streams := make([]trace.Stream, verifyCores)
	for c := range streams {
		rng := trace.NewRNG(seed*1000 + uint64(c))
		recs := make([]trace.Access, 0, verifyPerCore)
		for j := 0; j < verifyPerCore; j++ {
			addr := mem.Addr(rng.Intn(verifyRegions)*64 + rng.Intn(8)*8)
			kind := trace.Load
			if rng.Intn(100) < verifyStorePct {
				kind = trace.Store
			}
			recs = append(recs, trace.Access{Kind: kind, Addr: addr, PC: uint64(0x400 + rng.Intn(8)*4)})
		}
		streams[c] = trace.NewSliceStream(recs)
	}
	return streams
}

// counts are the per-layer counters read at the layer boundaries: the
// simulated Stats, the engine's event count, the self-profiling queue
// counters and the checker's summary.
type counts struct {
	accesses, events, hits, misses, msgs, flitHops uint64
	nackBytes, ctrlBytes, usedBytes, unusedBytes   uint64
	zeroDelay, ringPushes, farPushes, highWater    uint64
	checks, txns                                   uint64
}

func (c *counts) add(o counts) {
	c.accesses += o.accesses
	c.events += o.events
	c.hits += o.hits
	c.misses += o.misses
	c.msgs += o.msgs
	c.flitHops += o.flitHops
	c.nackBytes += o.nackBytes
	c.ctrlBytes += o.ctrlBytes
	c.usedBytes += o.usedBytes
	c.unusedBytes += o.unusedBytes
	c.zeroDelay += o.zeroDelay
	c.farPushes += o.farPushes
	c.highWater = max(c.highWater, o.highWater)
	c.checks += o.checks
	c.txns += o.txns
}

// txnCounter counts directory transactions on their way to the checker.
type txnCounter struct {
	core.Observer
	txns uint64
}

func (t *txnCounter) OnTxnEnd(r mem.RegionID) {
	t.txns++
	t.Observer.OnTxnEnd(r)
}

// cellRun is one cell's outcome and timings.
type cellRun struct {
	gen, setup, run, wall time.Duration // setup includes gen
	allocBytes, allocs    uint64
	liveHeap              uint64 // after the run, with the machine still held
	simCycles, traffic    uint64
	counts                counts
	digest                string
	err                   error
}

// cellMode selects what a cell run records beyond its timings.
type cellMode struct {
	traced   bool             // self-profiling counters and the transaction count
	msgLog   *[]core.MsgEvent // non-nil: receives the run's public message log
	uncheck  bool             // run a checked cell without its checker
	sample   int
	tr       *tracer
	prof     *phaseProfiler
	memStats bool // heap allocation counts around Run, and the live heap after it
}

// runCell generates the streams, builds the machine and runs it, timing
// each call from outside.
func runCell(c cellSpec, m cellMode) cellRun {
	var r cellRun
	t0 := time.Now()
	cs := m.tr.begin("cell", m.sample)
	gs := m.tr.begin("workloads.generate", m.sample)
	streams := c.streams()
	m.tr.end(gs)
	t1 := time.Now()
	ss := m.tr.begin("core.setup", m.sample)
	sys, err := core.NewSystem(c.cfg, streams)
	if err != nil {
		m.tr.end(ss)
		m.tr.end(cs)
		r.err = fmt.Errorf("%s: %w", c.label, err)
		return r
	}
	var chk *core.Checker
	var txns *txnCounter
	if c.checked && !m.uncheck {
		chk = core.NewChecker(sys)
		if m.traced {
			txns = &txnCounter{Observer: chk}
			sys.SetObserver(txns)
		}
	}
	if m.traced {
		sys.EnableSelfProf()
	}
	if m.msgLog != nil {
		sys.EnableMessageLog(msgLogCap)
	}
	m.tr.end(ss)
	t2 := time.Now()

	var before, after runtime.MemStats
	if m.memStats {
		runtime.ReadMemStats(&before)
	}
	rs := m.tr.begin("core.run", m.sample)
	t3 := time.Now()
	err = sys.Run()
	t4 := time.Now()
	m.tr.end(rs)
	if m.memStats {
		runtime.ReadMemStats(&after)
		r.allocBytes = after.TotalAlloc - before.TotalAlloc
		r.allocs = after.Mallocs - before.Mallocs
		r.liveHeap = liveHeap()
		runtime.KeepAlive(sys)
	}
	m.tr.end(cs)
	r.gen, r.setup, r.run, r.wall = t1.Sub(t0), t2.Sub(t0), t4.Sub(t3), t4.Sub(t0)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", c.label, err)
		return r
	}
	if chk != nil {
		if err := chk.Err(); err != nil {
			r.err = fmt.Errorf("%s: %w", c.label, err)
		}
	}
	st := sys.Stats()
	r.digest = digest(st)
	r.simCycles, r.traffic = st.ExecCycles, st.TrafficTotal()
	r.counts = statsCounts(st)
	r.counts.events = sys.EventsProcessed()
	if p := sys.SelfProf(); p != nil {
		r.counts.farPushes = p.Tiles[0].Queue.FarPushes
	}
	if chk != nil {
		r.counts.checks = uint64(chk.Summary().Checks)
	}
	if txns != nil {
		r.counts.txns = txns.txns
	}
	if m.msgLog != nil {
		*m.msgLog = sys.MessageLog()
	}
	return r
}

// statsCounts reads the per-layer counters a run's Stats carry.
func statsCounts(st *stats.Stats) counts {
	return counts{
		accesses:    st.Accesses,
		hits:        st.L1Hits,
		misses:      st.L1Misses,
		msgs:        st.Messages,
		flitHops:    st.FlitHops,
		nackBytes:   st.ControlBytes[stats.ClassNACK],
		ctrlBytes:   st.ControlTotal(),
		usedBytes:   st.UsedDataBytes,
		unusedBytes: st.UnusedDataBytes,
		zeroDelay:   st.ZeroDelayHits,
		highWater:   st.EventQueueHighWater,
	}
}

// liveHeap collects garbage and returns the heap still reachable: the
// memory the caller's live results hold.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
