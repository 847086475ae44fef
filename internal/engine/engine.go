// Package engine implements the deterministic discrete-event core of
// the simulator. All timing in the system — core issue, cache access,
// network hops, directory occupancy — is expressed as events scheduled
// on a single queue of (cycle, sequence) pairs, where the sequence
// number makes same-cycle ordering stable and runs reproducible.
//
// This replaces the SIMICS/GEMS execution-driven engine the paper used:
// the memory-system results depend only on event ordering and the
// Table 4 latencies, both of which this engine reproduces exactly.
//
// Two queue implementations back the engine. The default is a two-level
// bucketed queue: a ring of per-cycle FIFO buckets covers the near
// future (push and pop are O(1) with no per-event allocation), and a
// typed min-heap holds the far-future overflow, drained window by
// window. The original binary-heap queue is retained for differential
// testing — construct it with NewWithHeap, or set the environment
// variable PROTOZOA_EVENT_QUEUE=heap to make New return it. Both
// implement the exact same (cycle, sequence) total order, so a run is
// bit-identical under either.
package engine

import "os"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a specific cycle.
type Event func()

// Runner is the allocation-free alternative to Event: callers that
// would otherwise capture state in a fresh closure per event implement
// Run on a reusable struct and pass it to ScheduleRunner. Scheduling a
// pointer-shaped Runner does not allocate.
type Runner interface{ Run() }

// Prof is the engine's opt-in queue-introspection block (the simulator
// self-profiling layer, internal/obs/selfprof). Attach one with SetProf
// before running; every counter site in the hot path guards on a single
// nil check, so an engine without a Prof pays one predictable branch —
// the same contract as the internal/obs hooks. All fields are written
// only by the goroutine running the engine; read them after Run.
type Prof struct {
	RingPushes uint64 // events filed into the near-future bucket ring
	FarPushes  uint64 // events filed into the far-future (or legacy) heap
	MicroHigh  int    // deepest the zero-delay micro FIFO has been
	RingHigh   int    // most unpopped events the bucket ring has held
	FarHigh    int    // deepest the far-future heap has been
}

// item is one queued event: either r (preferred) or fn is set.
type item struct {
	at  Cycle
	seq uint64
	fn  Event
	r   Runner
}

// before is the engine's total order: cycle first, then schedule
// sequence, so same-cycle events run in scheduling order.
func (it item) before(other item) bool {
	if it.at != other.at {
		return it.at < other.at
	}
	return it.seq < other.seq
}

// Engine is a deterministic event queue. The zero value is NOT ready to
// use; construct with New (bucketed queue) or NewWithHeap.
type Engine struct {
	now     Cycle
	seq     uint64
	events  uint64
	size    int    // queued events right now (all levels)
	high    int    // deepest the queue has ever been
	micros  uint64 // zero-delay fast-path hits (micro FIFO pushes)
	useHeap bool
	heap    heapQueue
	bq      bucketQueue

	// prof, when non-nil, receives the queue-introspection counters
	// (SetProf). One nil check per site when disabled.
	prof *Prof

	// micro is the zero-delay fast path: a run-to-completion FIFO for
	// events scheduled at exactly the current cycle. Same-cycle chains
	// (ScheduleRunner(0, …), gather-free probe replies, directory
	// activate->process handoffs) append and pop here instead of round-
	// tripping the bucket ring or heap. Order is preserved exactly:
	// every event already queued for cycle `now` in the underlying
	// queue was pushed earlier (now only advances on pops), so it
	// carries a smaller seq than every micro item and drains first;
	// micro items then run in push (== seq) order among themselves.
	micro     []item
	microHead int
}

// QueueEnvVar selects the queue implementation for New: set it to
// "heap" to get the legacy binary-heap queue (differential testing).
const QueueEnvVar = "PROTOZOA_EVENT_QUEUE"

// New returns a fresh engine at cycle zero, using the bucketed queue
// unless PROTOZOA_EVENT_QUEUE=heap is set in the environment.
func New() *Engine {
	if os.Getenv(QueueEnvVar) == "heap" {
		return NewWithHeap()
	}
	return NewBucketed()
}

// NewBucketed returns an engine backed by the two-level bucketed queue.
func NewBucketed() *Engine {
	e := &Engine{}
	e.bq.init()
	return e
}

// NewWithHeap returns an engine backed by the legacy binary-heap queue
// (kept for differential testing against the bucketed queue).
func NewWithHeap() *Engine { return &Engine{useHeap: true} }

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Processed reports how many events have run.
func (e *Engine) Processed() uint64 { return e.events }

func (e *Engine) push(it item) {
	e.seq++
	it.seq = e.seq
	if it.at == e.now {
		// Zero-delay fast path: the event is due this very cycle, so it
		// never needs the two-level queue — it goes on the micro FIFO
		// and runs after everything already queued for this cycle.
		e.micro = append(e.micro, it)
		e.micros++
		if e.prof != nil {
			if d := len(e.micro) - e.microHead; d > e.prof.MicroHigh {
				e.prof.MicroHigh = d
			}
		}
	} else {
		if e.useHeap {
			e.heap.push(it)
			if e.prof != nil {
				e.prof.FarPushes++
				if len(e.heap.items) > e.prof.FarHigh {
					e.prof.FarHigh = len(e.heap.items)
				}
			}
		} else {
			e.bq.push(it)
		}
	}
	e.size++
	if e.size > e.high {
		e.high = e.size
	}
}

// nextAtNow returns the next event due at the current cycle while the
// micro FIFO is non-empty, in exact (cycle, seq) order: underlying-
// queue items at `now` were all scheduled before any micro item (now
// only advances on pops), so they drain first; popBefore(now+1) probes
// just the current cycle's bucket (or the heap top), O(1) either way.
func (e *Engine) nextAtNow() item {
	var it item
	var ok bool
	if e.useHeap {
		it, ok = e.heap.popBefore(e.now + 1)
	} else {
		it, ok = e.bq.popBefore(e.now + 1)
	}
	if !ok {
		return e.popMicro()
	}
	return it
}

// popMicro removes and returns the front of the micro FIFO; callers
// must have checked it is non-empty.
func (e *Engine) popMicro() item {
	it := e.micro[e.microHead]
	e.micro[e.microHead] = item{}
	e.microHead++
	if e.microHead == len(e.micro) {
		e.micro = e.micro[:0]
		e.microHead = 0
	}
	return it
}

// Schedule runs fn delay cycles from now. Events scheduled for the
// same cycle run in scheduling order.
func (e *Engine) Schedule(delay Cycle, fn Event) {
	e.push(item{at: e.now + delay, fn: fn})
}

// ScheduleAt runs fn at the given absolute cycle, which must not be in
// the past; a past cycle is clamped to now.
func (e *Engine) ScheduleAt(at Cycle, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.push(item{at: at, fn: fn})
}

// ScheduleRunner runs r delay cycles from now, without allocating: the
// hot-path equivalent of Schedule for pre-bound event structs.
func (e *Engine) ScheduleRunner(delay Cycle, r Runner) {
	e.push(item{at: e.now + delay, r: r})
}

// ScheduleRunnerAt is ScheduleAt for a Runner; past cycles clamp to now.
func (e *Engine) ScheduleRunnerAt(at Cycle, r Runner) {
	if at < e.now {
		at = e.now
	}
	e.push(item{at: at, r: r})
}

// HighWater reports the deepest the queue has ever been — the
// event-queue depth gauge the observability registry exposes.
func (e *Engine) HighWater() int { return e.high }

// MicroHits reports how many events rode the zero-delay fast path (the
// same-cycle micro FIFO) instead of the two-level queue. Always
// counted — the increment shares the fast path's existing branch.
func (e *Engine) MicroHits() uint64 { return e.micros }

// SetProf attaches a queue-introspection block: every hot-path counter
// site guards on one nil check, so engines without a Prof pay a single
// predictable branch per site. Pass nil to detach. Counters accumulate;
// attach a zeroed Prof per run for per-run numbers.
func (e *Engine) SetProf(p *Prof) {
	e.prof = p
	e.bq.prof = p
}

// Prof returns the attached introspection block, or nil.
func (e *Engine) Prof() *Prof { return e.prof }

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.micro) - e.microHead
	if e.useHeap {
		return n + len(e.heap.items)
	}
	return n + e.bq.size
}

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.microHead < len(e.micro) {
		it := e.nextAtNow()
		e.events++
		e.size--
		if it.r != nil {
			it.r.Run()
		} else {
			it.fn()
		}
		return true
	}
	var it item
	var ok bool
	if e.useHeap {
		it, ok = e.heap.pop()
	} else {
		it, ok = e.bq.pop()
	}
	if !ok {
		return false
	}
	e.now = it.at
	e.events++
	e.size--
	if it.r != nil {
		it.r.Run()
	} else {
		it.fn()
	}
	return true
}

// Recycle returns the bucketed queue's ring storage to a process-wide
// pool once the engine has fully drained. The engine remains readable
// (Now, Processed, Pending and HighWater all stay valid) but
// must not schedule further events. Recycle is a no-op on heap-backed
// engines, on engines with events still queued, and on engines already
// recycled — callers on error paths can skip it and lose nothing but
// the reuse.
func (e *Engine) Recycle() {
	if e.useHeap || e.bq.size != 0 || e.microHead < len(e.micro) {
		return
	}
	e.bq.release()
}

// Run drains the queue. It stops after maxEvents events when
// maxEvents > 0 (a watchdog against protocol livelock) and reports
// whether the queue drained completely.
func (e *Engine) Run(maxEvents uint64) bool {
	start := e.events
	for e.Step() {
		if maxEvents > 0 && e.events-start >= maxEvents {
			return e.Pending() == 0
		}
	}
	return true
}
