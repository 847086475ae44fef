package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa/internal/trace"
)

// sharingWorkload is a sharing-heavy 4-core schedule with barriers:
// every core hammers a shared region set (forcing cross-tile probes,
// upgrades, and invalidation rounds) interleaved with private work,
// with two barrier episodes so the barrier count-and-release path runs.
func sharingWorkload() [][]trace.Access {
	perCore := make([][]trace.Access, 4)
	for c := 0; c < 4; c++ {
		var recs []trace.Access
		for round := 0; round < 30; round++ {
			for r := 0; r < 6; r++ {
				recs = append(recs, ld(regAddr(r)))
				if (round+c+r)%3 == 0 {
					recs = append(recs, st(regAddr(r)))
				}
			}
			recs = append(recs, ld(regAddr(100+c)), st(regAddr(100+c)))
			if round == 10 || round == 20 {
				recs = append(recs, trace.Access{Kind: trace.Barrier, Think: uint16(c)})
			}
		}
		perCore[c] = recs
	}
	return perCore
}

// sharingSystem builds a 4-core machine running sharingWorkload.
func sharingSystem(t *testing.T, p Protocol) *System {
	t.Helper()
	perCore := sharingWorkload()
	streams := make([]trace.Stream, 4)
	for i := range streams {
		streams[i] = trace.NewSliceStream(perCore[i])
	}
	sys, err := NewSystem(testConfig(p, 4), streams)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runObserved runs sharingWorkload with every observability layer on.
func runObserved(t *testing.T, p Protocol) *System {
	t.Helper()
	sys := sharingSystem(t, p)
	sys.EnableTimeline(500)
	sys.EnableEventTrace(1 << 14)
	sys.EnableLatencyBreakdown()
	sys.EnableAttribution()
	sys.EnableTransitionAudit()
	sys.EnableFlightRecorder(1 << 16)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func flightLogBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.WriteFlightLog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObservablesDeterministic runs the sharing-and-barrier schedule
// twice per protocol and requires every observable — stats, timeline,
// trace events, latency breakdown, attribution, transition audit and
// the serialized flight log — to match exactly.
func TestObservablesDeterministic(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			a, b := runObserved(t, p), runObserved(t, p)
			assertJSONEqual(t, "stats", a.Stats(), b.Stats())
			assertJSONEqual(t, "timeline", a.Timeline(), b.Timeline())
			assertJSONEqual(t, "trace", a.Recorder().Snapshot(), b.Recorder().Snapshot())
			assertJSONEqual(t, "latency", a.LatencyBreakdown(), b.LatencyBreakdown())
			assertJSONEqual(t, "attribution", a.Attribution().Summarize(), b.Attribution().Summarize())
			if at, bt := a.TransitionTable(), b.TransitionTable(); at != bt {
				t.Errorf("transition table diverges between identical runs:\n%s\n---\n%s", at, bt)
			}
			if af, bf := flightLogBytes(t, a), flightLogBytes(t, b); !bytes.Equal(af, bf) {
				t.Errorf("flight log diverges between identical runs (%d vs %d bytes)", len(af), len(bf))
			}
		})
	}
}

func assertJSONEqual(t *testing.T, what string, a, b any) {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal %s: %v", what, err)
	}
	if string(aj) != string(bj) {
		t.Errorf("%s diverges:\n%s\n---\n%s", what, aj, bj)
	}
}
