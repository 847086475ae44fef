package runner

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/resultcache"
	"protozoa/internal/stats"
	"protozoa/internal/workloads"
)

// matrixCells is the figure-matrix cell shape (attribution plus the
// latency breakdown) for two workloads x all four protocols at 4 cores.
func matrixCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, w := range []string{"linear-regression", "barnes"} {
		spec, err := workloads.Get(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range core.AllProtocols {
			cfg := core.DefaultConfig(p)
			if err := ConfigureCores(&cfg, 4); err != nil {
				t.Fatal(err)
			}
			cells = append(cells, Cell{
				Label:    w + "/" + p.String(),
				Workload: w,
				Protocol: p,
				Key: CellSpec{
					Config: cfg, Workload: spec.Name, Scale: 1,
					NeedAttrib: true, NeedLatency: true,
				}.Key(),
				NeedAttrib:  true,
				NeedLatency: true,
				Build: func() (*core.System, error) {
					return core.NewSystem(cfg, spec.Streams(4, 1))
				},
			})
		}
	}
	return cells
}

// sameLatency compares a breakdown's exported totals; the unexported
// per-core stamps of in-flight misses are empty once a run ends and are
// not persisted.
func sameLatency(a, b *obs.LatencyBreakdown) bool {
	return a.PhaseSum == b.PhaseSum && a.Count == b.Count && a.TotalSum == b.TotalSum &&
		a.MaxLat == b.MaxLat && a.Hist == b.Hist
}

// TestPoolWarmCacheRoundTrip runs a grid cold into an on-disk cache,
// then again through a freshly opened cache on the same directory: every
// cell must come back from disk, carrying exactly what the simulation
// produced — stats, latency breakdown and the attribution tracker's
// per-region state.
func TestPoolWarmCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := func() []Result {
		cache, err := resultcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		results, sum := Pool{Jobs: 2, Cache: cache}.Run(matrixCells(t))
		if sum.Failed != 0 {
			t.Fatalf("%d cells failed", sum.Failed)
		}
		return results
	}
	cold, warm := run(), run()
	for i, c := range cold {
		w := warm[i]
		if c.Cached || !w.Cached {
			t.Fatalf("%s: cold cached=%v, warm cached=%v", c.Cell.Label, c.Cached, w.Cached)
		}
		if w.Events != c.Events || !reflect.DeepEqual(w.Stats, c.Stats) ||
			!sameLatency(w.Latency, c.Latency) || !reflect.DeepEqual(w.Extra, c.Extra) {
			t.Fatalf("%s: warm result differs from cold", c.Cell.Label)
		}
		if c.Attrib.RegionCount() == 0 {
			t.Fatalf("%s: no attribution regions to round-trip", c.Cell.Label)
		}
		if got, want := w.Attrib.Summarize(), c.Attrib.Summarize(); got != want {
			t.Fatalf("%s: Summarize = %+v, want %+v", c.Cell.Label, got, want)
		}
		if got, want := w.Attrib.TopOffenders(10), c.Attrib.TopOffenders(10); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopOffenders = %+v, want %+v", c.Cell.Label, got, want)
		}
		if !reflect.DeepEqual(w.Attrib.Dump(), c.Attrib.Dump()) {
			t.Fatalf("%s: restored tracker dumps differently", c.Cell.Label)
		}
	}
}

// seedResult is a small, fully populated result: the valid payload the
// fuzz corpus is built from.
func seedResult() *Result {
	tr := attrib.New(2)
	for i := 0; i < 6; i++ {
		tr.Access(i%2, 3, uint8(i), i%3 == 0)
	}
	tr.Fill(0, 3, 8)
	tr.Death(0, 3, 4, 8)
	tr.Access(1, 9, 0, true)
	tr.Invalidation(3, 1, 0, 2)
	tr.Invalidation(9, -1, 1, 1)
	tr.Upgrade(1, 9)
	tr.Fanout(9, 1)
	lat := &obs.LatencyBreakdown{Count: 3, TotalSum: 90, MaxLat: 40}
	lat.PhaseSum[0], lat.Hist[5] = 90, 3
	return &Result{
		Events:  1234,
		Stats:   &stats.Stats{Accesses: 6, Loads: 4, Stores: 2, PerCore: make([]stats.CoreStats, 2)},
		Latency: lat,
		Extra:   []byte("extra"),
		Attrib:  tr,
	}
}

// corpusEntry is one payload of the fuzz seed corpus and the error
// decoding it for a figure-matrix cell must report ("" = it decodes).
type corpusEntry struct {
	payload []byte
	err     string
}

// fuzzCorpus is the committed seed corpus for FuzzDecodeResult: the
// valid payload, its truncations, huge counts, trailing garbage and a
// bad attribution section.
func fuzzCorpus(t *testing.T) map[string]corpusEntry {
	valid, err := encodeResult(seedResult())
	if err != nil {
		t.Fatal(err)
	}
	envLen, k := binary.Uvarint(valid)
	marker := k + int(envLen)
	with := func(prefix []byte, tail ...byte) []byte {
		return append(append([]byte(nil), prefix...), tail...)
	}
	// A two-core dump header with zero totals and per-core counts.
	header := []byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0}
	return map[string]corpusEntry{
		"valid":                    {valid, ""},
		"truncated-length":         {valid[:1], "envelope length"},
		"truncated-envelope":       {valid[:marker/2], "envelope length"},
		"truncated-before-marker":  {valid[:marker], "envelope length"},
		"truncated-after-marker":   {valid[:marker+1], "attrib: decode dump: truncated"},
		"truncated-dump":           {valid[:marker+1+(len(valid)-marker)/2], "attrib: decode dump"},
		"truncated-last-byte":      {valid[:len(valid)-1], "attrib: decode dump"},
		"huge-envelope-length":     {append(binary.AppendUvarint(nil, 1<<62), valid[k:]...), "envelope length"},
		"huge-region-count":        {with(valid[:marker+1], binary.AppendUvarint(header, 1<<60)...), "exceeds the"},
		"trailing-garbage":         {with(valid, 0xde, 0xad), "2 trailing bytes"},
		"trailing-after-no-attrib": {with(valid[:marker], 0, 0), "1 trailing bytes"},
		"no-attribution":           {with(valid[:marker], 0), "lacks attribution"},
		"bad-marker":               {with(valid[:marker], 2), "attribution marker"},
	}
}

const fuzzCorpusDir = "testdata/fuzz/FuzzDecodeResult"

// TestDecodeResultCorpus checks the committed corpus against the codec:
// each file holds what fuzzCorpus generates today (regenerate with
// `go test -run DecodeResultCorpus -update`), "valid" decodes to the
// seed result, and every other entry is rejected with its error.
func TestDecodeResultCorpus(t *testing.T) {
	c := Cell{NeedAttrib: true, NeedLatency: true}
	corpus := fuzzCorpus(t)
	for name, e := range corpus {
		file := filepath.Join(fuzzCorpusDir, name)
		text := "go test fuzz v1\n[]byte(" + strconv.Quote(string(e.payload)) + ")\n"
		if *updateGolden {
			if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != text {
			t.Fatalf("%s is stale or missing (run with -update to regenerate): %v", file, err)
		}
		r, err := decodeResult(0, c, e.payload)
		if e.err != "" {
			if err == nil || !strings.Contains(err.Error(), e.err) {
				t.Errorf("%s: err = %v, want it to mention %q", name, err, e.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid payload: %v", err)
		}
		want := seedResult()
		if r.Events != want.Events || !reflect.DeepEqual(r.Stats, want.Stats) ||
			!sameLatency(r.Latency, want.Latency) || !bytes.Equal(r.Extra, want.Extra) ||
			!reflect.DeepEqual(r.Attrib.Dump(), want.Attrib.Dump()) {
			t.Fatal("valid payload decodes to a different result")
		}
	}
	// A cell that does not request attribution accepts an entry without it.
	if _, err := decodeResult(0, Cell{NeedLatency: true}, corpus["no-attribution"].payload); err != nil {
		t.Errorf("payload without attribution for a cell that does not need it: %v", err)
	}
}

// decodeAllocBound caps what decoding an n-byte payload may allocate:
// linear in n. The constant covers the largest per-byte expansion the
// format allows — a three-byte JSON "{}," element becomes a whole
// stats.CoreStats, a 14-byte region becomes a RegionDump plus a
// tracker region — with room for slice and map growth.
func decodeAllocBound(n int) uint64 { return 256*uint64(n) + 64<<10 }

// FuzzDecodeResult feeds decodeResult arbitrary bytes, starting from
// the committed corpus in testdata/fuzz. It must never panic, never
// allocate beyond decodeAllocBound, and whatever it accepts must
// survive a re-encode unchanged.
func FuzzDecodeResult(f *testing.F) {
	c := Cell{NeedAttrib: true, NeedLatency: true}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := decodeResult(0, c, payload)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(payload)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), got, bound)
		}
		if err != nil {
			return
		}
		again, err := encodeResult(&r)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		r2, err := decodeResult(0, c, again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if third, _ := encodeResult(&r2); !bytes.Equal(third, again) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
