package core

import (
	"testing"

	"protozoa/internal/trace"
)

// FuzzRandomTester: any random-tester configuration — seed, protocol,
// core count, region pool, store mix, cache size — must run to
// completion with no checker violation. Each input runs at most 2k
// accesses, so the committed seed corpus (testdata/fuzz) runs under
// plain `go test`; `go test -fuzz FuzzRandomTester` explores further.
func FuzzRandomTester(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, proto, coreSel, regions, storePct uint8, small bool) {
		p := AllProtocols[int(proto)%len(AllProtocols)]
		cores := []int{1, 2, 4}[int(coreSel)%3]
		cfg := testConfig(p, cores)
		cfg.MaxEvents = 2_000_000
		if small {
			cfg.L1Sets = 2
			cfg.L1SetBudget = 144
		}
		perCore := randomStreams(cores, 2000/cores, 1+int(regions)%16, int(storePct)%101, seed)
		streams := make([]trace.Stream, cores)
		for i := range streams {
			streams[i] = trace.NewSliceStream(perCore[i])
		}
		sys, err := NewSystem(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		chk := NewChecker(sys)
		if err := sys.Run(); err != nil {
			t.Fatalf("%v, %d cores: %v", p, cores, err)
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("%v, %d cores: %v", p, cores, err)
		}
	})
}
