package attrib_test

import (
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/mem"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/trace"
	"protozoa/internal/workloads"
)

// access is one Tracker.Access call.
type access struct {
	core   int
	region mem.RegionID
	word   uint8
	write  bool
}

// interleavedAccesses flattens a workload's 16 per-core streams into
// the order a 16-core machine would present them to the tracker: one
// record per core in turn, round robin, so consecutive calls come from
// different cores.
func interleavedAccesses(tb testing.TB, workload string) []access {
	tb.Helper()
	spec, err := workloads.Get(workload)
	if err != nil {
		tb.Fatal(err)
	}
	const cores = 16
	streams := spec.StreamsSeeded(cores, 1, 0)
	g := mem.MustGeometry(64)
	var out []access
	for live := len(streams); live > 0; {
		live = 0
		for c, s := range streams {
			if s == nil {
				continue
			}
			a, ok := s.Next()
			for ok && a.Kind == trace.Barrier {
				a, ok = s.Next()
			}
			if !ok {
				streams[c] = nil
				continue
			}
			live++
			out = append(out, access{c, g.Region(a.Addr), g.WordOffset(a.Addr), a.Kind != trace.Load})
		}
	}
	return out
}

// BenchmarkTrackerAccess feeds canneal's 16-core interleaved access
// stream (~80k accesses over ~25k regions) into a tracker, one whole
// stream per op. cold starts each op from a fresh tracker, so first
// touches create region state and allocs/op is what building one
// tracker allocates; warm replays the stream into a tracker that has
// already seen it, which is the per-access hot path alone. ns/access is
// the per-call cost.
func BenchmarkTrackerAccess(b *testing.B) {
	accs := interleavedAccesses(b, "canneal")
	feed := func(tr *attrib.Tracker) {
		for _, a := range accs {
			tr.Access(a.core, a.region, a.word, a.write)
		}
	}
	perAccess := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			feed(attrib.New(16))
		}
		perAccess(b)
	})
	b.Run("warm", func(b *testing.B) {
		tr := attrib.New(16)
		feed(tr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(tr)
		}
		perAccess(b)
	})
}

// BenchmarkTrackerFromDump rebuilds a tracker from a canneal-sized dump
// (16 cores, ~25k regions, one finished MESI run), as a warm result-cache
// hit does.
func BenchmarkTrackerFromDump(b *testing.B) {
	d := trackedRun(b, "canneal", core.MESI).Dump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attrib.FromDump(d); err != nil {
			b.Fatal(err)
		}
	}
}
