package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run takes a CPU profile of each phase and folds it into
// per-layer shares. The standard library writes profiles but has no
// reader, so this file decodes the few fields of the pprof protobuf it
// needs: samples (location ids, values), locations (lines), functions
// (name, file) and the string table.

// fold is a CPU profile reduced to sample counts per layer.
type fold map[string]int64

func (f fold) total() int64 {
	var n int64
	for _, v := range f {
		n += v
	}
	return n
}

func (f fold) add(o fold) {
	for k, v := range o {
		f[k] += v
	}
}

// share is the fraction of the fold's samples charged to layer.
func (f fold) share(layer string) float64 {
	if t := f.total(); t > 0 {
		return float64(f[layer]) / float64(t)
	}
	return 0
}

// phaseProfiler takes a CPU profile of each traced phase and keeps its
// fold per phase name. A nil phaseProfiler does nothing, which is how
// the untraced samples run.
type phaseProfiler struct {
	buf   bytes.Buffer
	phase string
	folds map[string]fold
	err   error
}

func newPhaseProfiler() *phaseProfiler { return &phaseProfiler{folds: map[string]fold{}} }

func (p *phaseProfiler) begin(phase string) {
	if p == nil {
		return
	}
	p.buf.Reset()
	p.phase = phase
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
	}
}

func (p *phaseProfiler) end() {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	f, err := foldProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	if p.folds[p.phase] == nil {
		p.folds[p.phase] = fold{}
	}
	p.folds[p.phase].add(f)
}

// all merges every phase's fold.
func (p *phaseProfiler) all() fold {
	out := fold{}
	for _, f := range p.folds {
		out.add(f)
	}
	return out
}

type frame struct{ fn, file string }

// foldProfile decodes a gzipped pprof CPU profile and charges each
// sample to one layer (see layerOf).
func foldProfile(gz []byte) (fold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64][2]int64{} // function id -> string indexes of name, file
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := walk(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return walk(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name, file int64
			err := walk(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			fnName[id] = [2]int64{name, file}
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := fold{}
	for _, s := range samples {
		var frames []frame
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				nf := fnName[fid]
				frames = append(frames, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		out[layerOf(frames)] += s.count
	}
	return out, nil
}

// layerOf charges one stack (leaf first) to a layer. Garbage collection
// is charged to runtime.gc wherever it runs. The checker and the result
// decoder own everything beneath them, since their cost is the point of
// those metrics. Otherwise an allocation under the leaf-most simulator
// frame is runtime.alloc, and the rest goes to the package of the
// leaf-most simulator frame; mem and stats helpers are charged to
// their caller.
func layerOf(frames []frame) string {
	for _, f := range frames {
		if isGC(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f.fn, "protozoa/internal/core.(*Checker)"):
			return "checker"
		case f.fn == "protozoa/internal/runner.decodeResult":
			return "runner.decode"
		}
	}
	alloc := false
	for _, f := range frames {
		if f.fn == "runtime.mallocgc" {
			alloc = true
		}
		l := packageLayer(f)
		if l == "" {
			continue
		}
		if alloc {
			return "runtime.alloc"
		}
		return l
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.gcStart"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// packageLayer maps a simulator or benchmark frame to its layer, or ""
// for frames that charge their caller instead.
func packageLayer(f frame) string {
	if strings.HasPrefix(f.fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(f.fn, "protozoa/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	switch pkg {
	case "mem", "stats":
		return ""
	case "trace":
		return "workloads"
	case "engine", "cache", "noc", "predictor", "workloads", "runner", "resultcache", "harness", "obs":
		return pkg
	case "core":
		switch {
		case strings.HasSuffix(f.file, "/core/l1.go"):
			return "core.l1"
		case strings.HasSuffix(f.file, "/core/dir.go"), strings.HasSuffix(f.file, "/core/bloomdir.go"):
			return "core.dir"
		}
		return "core.other"
	}
	return "other"
}

// walk calls fn for each field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// appendVarints appends a repeated integer field given either unpacked
// (one varint v, b nil) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
