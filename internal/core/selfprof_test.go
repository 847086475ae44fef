package core

import (
	"bytes"
	"testing"
)

// runSelfProfWorkload runs sharingWorkload with EnableSelfProf, minus
// the observability layers the perturbation test arms separately.
func runSelfProfWorkload(t *testing.T, p Protocol) *System {
	t.Helper()
	sys := sharingSystem(t, p)
	sys.EnableSelfProf()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSelfProfReconciles pins the queue-telemetry invariants — the
// analog of the latency layer's reconciliation contract — on every
// protocol: after a clean drain everything pushed was popped, so the
// three push paths tile the processed-event count exactly, and the
// stats-side self-observability fields agree with the profile.
func TestSelfProfReconciles(t *testing.T) {
	for _, p := range AllProtocols {
		sys := runSelfProfWorkload(t, p)
		r := sys.SelfProf().Report()
		events := sys.EventsProcessed()
		if pushes := r.Queue.RingPushes + r.Queue.FarPushes + r.Queue.MicroHits; pushes != events {
			t.Errorf("%v: ring %d + far %d + micro %d = %d pushes, %d processed",
				p, r.Queue.RingPushes, r.Queue.FarPushes, r.Queue.MicroHits, pushes, events)
		}
		if r.TotalEvents != events {
			t.Errorf("%v: report TotalEvents %d != %d", p, r.TotalEvents, events)
		}
		if sys.Stats().ZeroDelayHits != r.Queue.MicroHits {
			t.Errorf("%v: stats ZeroDelayHits %d != profile micro %d",
				p, sys.Stats().ZeroDelayHits, r.Queue.MicroHits)
		}
		if r.Queue.RingHigh == 0 || r.Queue.MicroHigh == 0 {
			t.Errorf("%v: high-water marks not recorded: %+v", p, r.Queue)
		}
	}
}

// TestSelfProfDoesNotPerturbResults is the byte-identical acceptance
// contract: every observable of a fully-instrumented run matches
// exactly with self-prof on vs off.
func TestSelfProfDoesNotPerturbResults(t *testing.T) {
	run := func(selfProf bool) *System {
		sys := sharingSystem(t, ProtozoaSW)
		sys.EnableTimeline(500)
		sys.EnableEventTrace(1 << 14)
		sys.EnableAttribution()
		if selfProf {
			sys.EnableSelfProf()
		}
		if err := sys.Run(); err != nil {
			t.Fatalf("selfprof=%v: %v", selfProf, err)
		}
		return sys
	}
	base := run(false)
	prof := run(true)
	assertJSONEqual(t, "stats", base.Stats(), prof.Stats())
	assertJSONEqual(t, "timeline", base.Timeline(), prof.Timeline())
	assertJSONEqual(t, "trace", base.Recorder().Snapshot(), prof.Recorder().Snapshot())
	assertJSONEqual(t, "attribution", base.Attribution().Summarize(), prof.Attribution().Summarize())
}

// TestSelfProfSequentialMode: the queue introspection works on the
// machine's event queue and the report renders.
func TestSelfProfSequentialMode(t *testing.T) {
	sys := runSelfProfWorkload(t, MESI)
	r := sys.SelfProf().Report()
	if got := sys.EventsProcessed(); r.Queue.RingPushes+r.Queue.FarPushes+r.Queue.MicroHits != got {
		t.Errorf("queue pushes %d+%d+%d != %d events processed",
			r.Queue.RingPushes, r.Queue.FarPushes, r.Queue.MicroHits, got)
	}
	if r.TotalEvents != sys.EventsProcessed() {
		t.Errorf("TotalEvents %d != %d", r.TotalEvents, sys.EventsProcessed())
	}
	if sys.Stats().ZeroDelayHits != r.Queue.MicroHits {
		t.Errorf("stats ZeroDelayHits %d != %d", sys.Stats().ZeroDelayHits, r.Queue.MicroHits)
	}
	if sys.Stats().EventQueueHighWater == 0 {
		t.Error("EventQueueHighWater not set")
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if buf.Len() == 0 {
		t.Error("empty summary")
	}
}
