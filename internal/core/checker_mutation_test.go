package core

// The mutation suite: inject known protocol bugs and show the checker
// flags each one, and that checking only the dirty regions finds the
// first violation at the same quiescent point, with the same message,
// as a full sweep of every resident region at every quiescent point.

import (
	"fmt"
	"strings"
	"testing"

	"protozoa/internal/mem"
	"protozoa/internal/trace"
)

// firstViolation wraps a Checker as the system's observer and records
// the quiescent-point index at which the first violation appeared.
// With full set, every quiescent point sweeps all resident regions:
// the reference the incremental check must match.
type firstViolation struct {
	*Checker
	full bool
	at   int // Checks when the first violation was recorded; 0 if none
	// after, when non-nil, runs after each quiescent point's check.
	after func()
}

func (f *firstViolation) note() {
	if f.at == 0 && len(f.Violations()) > 0 {
		f.at = f.Checks
	}
}

func (f *firstViolation) OnLoad(core int, addr mem.Addr, val uint64) {
	f.Checker.OnLoad(core, addr, val)
	f.note()
}

func (f *firstViolation) OnTxnEnd(region mem.RegionID) {
	if f.full {
		f.sweep()
	}
	f.Checker.OnTxnEnd(region)
	f.note()
	if f.after != nil {
		f.after()
	}
}

// watchedRun runs a 4-core random stream (the stress tests' shape)
// with a wrapped checker and returns the wrapper.
func watchedRun(t *testing.T, p Protocol, seed uint64, full bool, prefix []trace.Access, after func(*System, *firstViolation)) *firstViolation {
	t.Helper()
	cfg := testConfig(p, 4)
	cfg.MaxEvents = 5_000_000
	perCore := randomStreams(4, 1500, 8, 40, seed)
	perCore[0] = append(prefix, perCore[0]...)
	streams := make([]trace.Stream, len(perCore))
	for i := range streams {
		streams[i] = trace.NewSliceStream(perCore[i])
	}
	sys, err := NewSystem(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	f := &firstViolation{Checker: NewChecker(sys), full: full}
	if after != nil {
		f.after = func() { after(sys, f) }
	}
	sys.SetObserver(f)
	// A broken protocol may also deadlock or exhaust the event budget;
	// only the checker's verdict matters here.
	_ = sys.Run()
	return f
}

func TestCheckerMutations(t *testing.T) {
	faults := []struct {
		name  string
		fault uint8
	}{
		{"FwdGetSKeepsExclusive", faultFwdGetSKeepsExclusive},
		{"FwdGetSDropsData", faultFwdGetSDropsData},
		{"InvKeepsCopy", faultInvKeepsCopy},
	}
	for _, fc := range faults {
		for _, p := range AllProtocols {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", fc.name, p, seed), func(t *testing.T) {
					probeFault = fc.fault
					defer func() { probeFault = 0 }()
					inc := watchedRun(t, p, seed, false, nil, nil)
					ref := watchedRun(t, p, seed, true, nil, nil)
					if ref.at == 0 {
						t.Fatal("full-sweep reference missed the fault")
					}
					if inc.at == 0 {
						t.Fatalf("checker missed the fault; reference flagged it at quiescent point %d: %s",
							ref.at, ref.Violations()[0])
					}
					t.Logf("flagged at quiescent point %d: %s", inc.at, inc.Violations()[0])
					if inc.at != ref.at || inc.Violations()[0] != ref.Violations()[0] {
						t.Errorf("first violation at quiescent point %d: %s\nreference at %d: %s",
							inc.at, inc.Violations()[0], ref.at, ref.Violations()[0])
					}
				})
			}
		}
	}
}

// TestCheckerSweepCatchesUnmarkedChange corrupts a cached word behind
// the dirty marking's back: only the periodic full sweep can see it,
// and it must within sweepInterval quiescent points.
func TestCheckerSweepCatchesUnmarkedChange(t *testing.T) {
	// Core 0 first loads a region no stream touches again (its set is
	// not shared with the random regions 0-7, so it stays resident).
	const quiet = 100
	poked := 0
	f := watchedRun(t, ProtozoaMW, 1, false, []trace.Access{ld(regAddr(quiet))}, func(sys *System, f *firstViolation) {
		if poked != 0 {
			return
		}
		if b := sys.l1s[0].cache.Peek(quiet, 3); b != nil {
			b.SetWord(3, 0xbad)
			poked = f.Checks
		}
	})
	if poked == 0 {
		t.Fatal("the quiet region never became resident")
	}
	if f.at == 0 {
		t.Fatalf("the corrupted word was never flagged (corrupted at quiescent point %d of %d)", poked, f.Checks)
	}
	t.Logf("corrupted at quiescent point %d, flagged at %d", poked, f.at)
	if f.at <= poked || f.at > poked+sweepInterval {
		t.Errorf("flagged at quiescent point %d, want within (%d, %d]", f.at, poked, poked+sweepInterval)
	}
	if want := fmt.Sprintf("core 0 caches %#x=0xbad", regAddr(quiet)+3*mem.WordBytes); !strings.HasPrefix(f.Violations()[0], want) {
		t.Errorf("first violation %q, want prefix %q", f.Violations()[0], want)
	}
}
