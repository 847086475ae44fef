package protozoa_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"protozoa"
	"protozoa/internal/core"
	"protozoa/internal/engine"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

// marshalRun executes one workload and returns its full marshaled
// statistics — every counter, histogram, and derived figure — so two
// runs can be compared byte for byte.
func marshalRun(t *testing.T, workload string, p protozoa.Protocol) []byte {
	t.Helper()
	st, err := protozoa.Run(workload, p, protozoa.Options{Cores: 16, Scale: 1})
	if err != nil {
		t.Fatalf("%v on %s: %v", p, workload, err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	return b
}

// newSystem builds one workload on the 16-core machine, ready for the
// caller to arm recorders and run.
func newSystem(t *testing.T, workload string, p core.Protocol) *core.System {
	t.Helper()
	spec, err := workloads.Get(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(p)
	if err := runner.ConfigureCores(&cfg, 16); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, spec.Streams(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// instrumentedRun executes one workload with the event trace,
// attribution and transition audit armed and returns each output
// serialized: the stats, the Chrome trace, the attribution dump and
// the transition table.
func instrumentedRun(t *testing.T, workload string, p core.Protocol) map[string][]byte {
	t.Helper()
	sys := newSystem(t, workload, p)
	sys.EnableEventTrace(1 << 16)
	sys.EnableAttribution()
	sys.EnableTransitionAudit()
	if err := sys.Run(); err != nil {
		t.Fatalf("%v on %s: %v", p, workload, err)
	}
	out := map[string][]byte{"transition table": []byte(sys.TransitionTable())}
	var err error
	if out["stats"], err = json.Marshal(sys.Stats()); err != nil {
		t.Fatal(err)
	}
	if out["attribution dump"], err = sys.Attribution().Dump().AppendBinary(nil); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := sys.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	out["chrome trace"] = chrome.Bytes()
	return out
}

// TestRunDeterminism runs every protocol twice on the same workload
// and requires bit-identical statistics: the simulator must be a pure
// function of its inputs (the property the sweep's byte-identical-CSV
// guarantee and all ablation comparisons rest on).
func TestRunDeterminism(t *testing.T) {
	for _, p := range protozoa.Protocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			a := marshalRun(t, "barnes", p)
			b := marshalRun(t, "barnes", p)
			if !bytes.Equal(a, b) {
				t.Fatalf("two identical runs produced different stats:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// TestInstrumentedRunDeterminism extends TestRunDeterminism to four
// workloads with the recorders armed: two runs of each workload and
// protocol must produce byte-identical stats, Chrome trace, attribution
// dump and transition table.
//
// micro-barrier-skew is the adversarial schedule: nearly every core
// sits idle at a barrier each phase while one straggler runs alone, so
// barrier release and long single-core stretches are on the
// determinism-critical path.
func TestInstrumentedRunDeterminism(t *testing.T) {
	for _, w := range []string{"barnes", "ocean", "lu", "micro-barrier-skew"} {
		for _, p := range protozoa.Protocols() {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				first := instrumentedRun(t, w, p)
				second := instrumentedRun(t, w, p)
				for _, what := range []string{"stats", "chrome trace", "attribution dump", "transition table"} {
					if !bytes.Equal(first[what], second[what]) {
						t.Errorf("two identical runs produced different %s (%d vs %d bytes)",
							what, len(first[what]), len(second[what]))
					}
				}
			})
		}
	}
}

// TestFlightLogDeterminism requires the serialized flight log — header
// and every record, including ring-wrap drops — to be byte-identical
// across two runs of the same configuration.
func TestFlightLogDeterminism(t *testing.T) {
	logOf := func(t *testing.T, w string, p core.Protocol) []byte {
		t.Helper()
		sys := newSystem(t, w, p)
		sys.EnableFlightRecorder(1 << 15)
		if err := sys.Run(); err != nil {
			t.Fatalf("%v on %s: %v", p, w, err)
		}
		var buf bytes.Buffer
		if err := sys.WriteFlightLog(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, w := range []string{"barnes", "ocean", "lu", "micro-barrier-skew"} {
		for _, p := range protozoa.Protocols() {
			w, p := w, p
			t.Run(w+"/"+p.String(), func(t *testing.T) {
				first, second := logOf(t, w, p), logOf(t, w, p)
				if !bytes.Equal(first, second) {
					t.Fatalf("two identical runs produced different flight logs (%d vs %d bytes)",
						len(first), len(second))
				}
			})
		}
	}
}

// TestQueueImplementationsAgree runs the same simulations under the
// bucketed event queue (default) and the reference binary heap
// (PROTOZOA_EVENT_QUEUE=heap) and requires bit-identical statistics:
// the bucketed queue must preserve the exact (cycle, sequence) total
// order of the original heap.
func TestQueueImplementationsAgree(t *testing.T) {
	for _, p := range protozoa.Protocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			bucketed := marshalRun(t, "barnes", p)
			t.Setenv(engine.QueueEnvVar, "heap")
			heap := marshalRun(t, "barnes", p)
			if !bytes.Equal(bucketed, heap) {
				t.Fatalf("bucketed and heap event queues diverge:\n%s\n---\n%s", bucketed, heap)
			}
		})
	}
}
