// Package selfprof is the simulator's self-profiling layer: where
// internal/obs observes the simulated machine, selfprof observes the
// simulator itself — how the event queue is used (near-future ring,
// far-future heap, zero-delay fast path, and their high-water marks)
// and how many events the run took in how much wall-clock.
//
// The layer is strictly opt-in (System.EnableSelfProf before Run);
// every hot-path site in the engine guards on a single nil check, and
// recording is allocation-free.
package selfprof

import (
	"time"

	"protozoa/internal/engine"
)

// QueueProf is the event queue's self-profiling accumulator. Queue is
// attached to the engine via SetProf; MicroHits is copied from the
// engine when the run finishes.
type QueueProf struct {
	Queue     engine.Prof // ring/far/micro occupancy and push counts
	MicroHits uint64      // zero-delay fast-path hits (engine.MicroHits)
}

// Profile is the run-wide self-profiling state.
type Profile struct {
	Start time.Time

	TotalEvents uint64 // events processed by the run
	TotalNs     int64  // wall-clock of the whole Run

	// Tiles[0] is the machine's one event queue. (The single-element
	// array keeps the Tiles[0].Queue path existing readers use.)
	Tiles [1]QueueProf
}

// New returns an empty profile whose clock starts now.
func New() *Profile { return &Profile{Start: time.Now()} }
