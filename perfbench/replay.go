package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"protozoa/internal/cache"
	"protozoa/internal/core"
	"protozoa/internal/engine"
	"protozoa/internal/mem"
	"protozoa/internal/noc"
	"protozoa/internal/predictor"
	"protozoa/internal/resultcache"
	"protozoa/internal/stats"
	"protozoa/internal/trace"
)

// Layer replays time one layer's public calls in a tight loop, with
// inputs taken from the workload being traced, and report ns per call.

// sink keeps replayed calls whose results are otherwise unused from
// being optimised away.
var sink int

// replayFor is how long each replay loop repeats its input at least.
const replayFor = 50 * time.Millisecond

// repeat runs pass until replayFor has elapsed and returns ns per call,
// given the calls one pass makes.
func repeat(calls int, pass func()) float64 {
	if calls == 0 {
		return 0
	}
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < replayFor {
		pass()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*calls)
}

// replays runs every layer replay and records its metrics.
func replays(m map[string]float64, seed uint64, c counts, streams [][]trace.Stream, msgs []core.MsgEvent) {
	m["engine.ns_per_event"] = replayEngine(seed, ratio(c.zeroDelay, c.events), ratio(c.farPushes, c.events))
	l1 := recordL1(streams)
	m["cache.lookup_ns"], m["cache.insert_ns"], m["cache.blocks_in_region_ns"] = l1.replayCache()
	m["predictor.predict_ns"], m["predictor.train_ns"] = l1.replayPredictor()
	m["noc.hops_ns"], m["noc.arrival_ns"] = replayNoc(msgs)
}

// replayEvent is a self-rescheduling engine event: each run schedules
// its successor with the next delay from a precomputed list.
type replayEvent struct {
	e      *engine.Engine
	delays []engine.Cycle
	next   *int
}

func (r *replayEvent) Run() {
	if *r.next >= len(r.delays) {
		return
	}
	d := r.delays[*r.next]
	*r.next++
	r.e.ScheduleRunner(d, r)
}

// replayEngine schedules and runs events through the engine with the
// traced workload's mix of zero-delay, near (bucket ring) and far
// (heap) delays, keeping as many events queued as the machine has
// cores.
func replayEngine(seed uint64, zeroFrac, farFrac float64) float64 {
	const events, depth = 200_000, 16
	rng := trace.NewRNG(seed + 1)
	delays := make([]engine.Cycle, events)
	for i := range delays {
		switch x := rng.Float64(); {
		case x < zeroFrac:
			delays[i] = 0
		case x < zeroFrac+farFrac:
			delays[i] = engine.Cycle(600 + rng.Intn(400)) // beyond the ring's 512-cycle window
		default:
			delays[i] = engine.Cycle(1 + rng.Intn(300))
		}
	}
	var best float64
	for rep := 0; rep < 3; rep++ {
		e := engine.New()
		next := 0
		evs := make([]replayEvent, depth)
		for i := range evs {
			evs[i] = replayEvent{e: e, delays: delays, next: &next}
			e.ScheduleRunner(engine.Cycle(i), &evs[i])
		}
		t0 := time.Now()
		e.Run(0)
		ns := float64(time.Since(t0).Nanoseconds()) / float64(e.Processed())
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// l1Ops is the cache and predictor call sequence one L1 per core makes
// on the workload's streams: a lookup per access; on a miss a predicted
// fill, trimmed to the resident blocks, and predictor training for the
// blocks it evicts.
type l1Ops struct {
	geom    mem.Geometry
	lookups [][]regionWord // per core
	fills   [][]fill
	trains  [][]trainArgs
	caches  []*cache.Cache       // state after recording, for lookups
	preds   []*predictor.Spatial // state after recording, for predictions
}

type regionWord struct {
	region mem.RegionID
	w      uint8
}

type fill struct {
	regionWord
	pc    uint64
	want  mem.Range
	state cache.State
}

type trainArgs struct {
	pc      uint64
	region  mem.RegionID
	w       uint8
	touched mem.Bitmap
	r       mem.Range
}

// maxReplayRecords bounds the records replayed per core stream.
const maxReplayRecords = 20_000

func recordL1(streams [][]trace.Stream) *l1Ops {
	o := &l1Ops{geom: mem.DefaultGeometry}
	for _, set := range streams {
		for _, st := range set {
			c := cache.MustNew(cache.DefaultL1Config())
			p := predictor.NewSpatial(o.geom, predictor.DefaultTableSize)
			var lk []regionWord
			var fl []fill
			var tr []trainArgs
			for i := 0; i < maxReplayRecords; i++ {
				a, ok := st.Next()
				if !ok {
					break
				}
				if a.Kind == trace.Barrier {
					continue
				}
				rw := regionWord{o.geom.Region(a.Addr), o.geom.WordOffset(a.Addr)}
				lk = append(lk, rw)
				if b := c.Lookup(rw.region, rw.w); b != nil {
					b.Touch(rw.w)
					continue
				}
				f := fill{regionWord: rw, pc: a.PC, want: p.Predict(a.PC, rw.region, rw.w), state: cache.Shared}
				if a.Kind != trace.Load {
					f.state = cache.Modified
				}
				fl = append(fl, f)
				for _, v := range insert(c, f) {
					t := trainArgs{v.FetchPC, v.Region, v.FetchWord, v.Touched, v.R}
					p.Train(t.pc, t.region, t.w, t.touched, t.r)
					tr = append(tr, t)
				}
			}
			o.lookups = append(o.lookups, lk)
			o.fills = append(o.fills, fl)
			o.trains = append(o.trains, tr)
			o.caches = append(o.caches, c)
			o.preds = append(o.preds, p)
		}
	}
	return o
}

// insert fills the predicted range, trimmed so it overlaps no resident
// block, as the L1 controller does, and returns the evicted blocks.
func insert(c *cache.Cache, f fill) []cache.Block {
	r := c.TrimFill(f.region, f.want, f.w)
	return c.Insert(cache.Block{Region: f.region, R: r, State: f.state, Touched: mem.Bitmap(0).Set(f.w),
		FetchPC: f.pc, FetchWord: f.w, Data: make([]uint64, r.Words())})
}

func (o *l1Ops) replayCache() (lookupNs, insertNs, regionNs float64) {
	var nLookups, nFills int
	for i := range o.lookups {
		nLookups += len(o.lookups[i])
		nFills += len(o.fills[i])
	}
	lookupNs = repeat(nLookups, func() {
		for i, c := range o.caches {
			for _, rw := range o.lookups[i] {
				c.Lookup(rw.region, rw.w)
			}
		}
	})
	regionNs = repeat(nFills, func() {
		for i, c := range o.caches {
			for _, f := range o.fills[i] {
				c.BlocksInRegion(f.region)
			}
		}
	})
	// Without the lookups' recency updates a fresh cache evicts other
	// blocks than the recording did, so a fill whose word is still
	// resident is skipped (Peek leaves recency alone).
	insertNs = repeat(nFills, func() {
		for i := range o.fills {
			c := cache.MustNew(cache.DefaultL1Config())
			for _, f := range o.fills[i] {
				if c.Peek(f.region, f.w) == nil {
					insert(c, f)
				}
			}
		}
	})
	return lookupNs, insertNs, regionNs
}

func (o *l1Ops) replayPredictor() (predictNs, trainNs float64) {
	var nFills, nTrains int
	for i := range o.fills {
		nFills += len(o.fills[i])
		nTrains += len(o.trains[i])
	}
	predictNs = repeat(nFills, func() {
		for i, p := range o.preds {
			for _, f := range o.fills[i] {
				sink += int(p.Predict(f.pc, f.region, f.w).End)
			}
		}
	})
	trainNs = repeat(nTrains, func() {
		for i := range o.trains {
			p := predictor.NewSpatial(o.geom, predictor.DefaultTableSize)
			for _, t := range o.trains[i] {
				p.Train(t.pc, t.region, t.w, t.touched, t.r)
			}
		}
	})
	return predictNs, trainNs
}

// replayNoc replays the messages the flight recorder captured from one
// of the workload's cells through a fresh mesh.
func replayNoc(msgs []core.MsgEvent) (hopsNs, arrivalNs float64) {
	cfg := noc.DefaultConfig()
	mesh, err := noc.New(cfg, engine.New(), &stats.Stats{})
	if err != nil {
		return 0, 0
	}
	hopsNs = repeat(len(msgs), func() {
		for i := range msgs {
			sink += mesh.Hops(msgs[i].Msg.Src, msgs[i].Msg.Dst)
		}
	})
	var st stats.Stats
	arrivalNs = repeat(len(msgs), func() {
		mesh, _ := noc.New(cfg, engine.New(), &st)
		for i := range msgs {
			mg := &msgs[i].Msg
			mesh.Arrival(msgs[i].Cycle, mg.Src, mg.Dst, mg.VNet(), mg.Bytes(), &st)
		}
	})
	return hopsNs, arrivalNs
}

// replayResultCache reads every payload the grid stored in dir, then
// times Put of each into a fresh cache on scratch and Get of each from
// another fresh cache on the same directory, so every Get reads disk.
func replayResultCache(dir, scratch string) (getNs, putNs float64, err error) {
	defer os.RemoveAll(scratch)
	src, err := resultcache.Open(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.pzc"))
	if err != nil {
		return 0, 0, err
	}
	var keys []resultcache.Key
	var payloads [][]byte
	for _, f := range files {
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(f), ".pzc"))
		if err != nil || len(raw) != len(resultcache.Key{}) {
			return 0, 0, fmt.Errorf("result cache entry %s: not a key", f)
		}
		var k resultcache.Key
		copy(k[:], raw)
		p, ok := src.Get(k)
		if !ok {
			return 0, 0, fmt.Errorf("result cache entry %s: unreadable", f)
		}
		keys, payloads = append(keys, k), append(payloads, p)
	}
	if len(keys) == 0 {
		return 0, 0, fmt.Errorf("result cache %s is empty", dir)
	}
	if err := os.RemoveAll(scratch); err != nil {
		return 0, 0, err
	}
	dst, err := resultcache.Open(scratch, 0)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i, k := range keys {
		if err := dst.Put(k, payloads[i]); err != nil {
			return 0, 0, err
		}
	}
	putNs = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	fresh, err := resultcache.Open(scratch, 0)
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := fresh.Get(k); !ok {
			return 0, 0, fmt.Errorf("result cache replay: stored entry missing")
		}
	}
	getNs = float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
	return getNs, putNs, nil
}
