// Package obs is the simulator's observability layer: a preallocated
// ring-buffer event recorder (exported as Chrome trace-event JSON for
// Perfetto), a per-transaction miss-latency phase breakdown, and a
// registry of named metrics sampled on the timeline hook.
//
// The layer is strictly zero-cost when disabled: every emit site in
// the simulator guards the call with a single nil check, and nothing
// here is constructed unless an Enable* method was called on the
// system. When enabled, recording stays allocation-free — the ring
// buffer is preallocated at capacity and one Record is a slot store.
//
// The package deliberately knows nothing about the coherence protocol:
// events carry small integer fields (kind, sub-kind, node, peer,
// region, transaction id) and the caller supplies naming callbacks at
// export time, so core can depend on obs without a cycle.
package obs

import "protozoa/internal/engine"

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindMsgSend marks a coherence message entering the network
	// (Node = source tile, Peer = destination, Sub = message type).
	KindMsgSend Kind = iota
	// KindMsgDeliver marks a message arriving at its destination
	// controller (same fields as KindMsgSend).
	KindMsgDeliver
	// KindMissStart marks an L1 miss issuing (Node = core, Sub =
	// request message type).
	KindMissStart
	// KindMissEnd marks the miss's fill or grant completing at the L1.
	KindMissEnd
	// KindTxnStart marks a directory transaction activating for a
	// region (Node = home tile, Sub = request message type).
	KindTxnStart
	// KindTxnEnd marks the region reopening at the directory (the
	// requester's unblock arrived, or a recall retired).
	KindTxnEnd
	// KindLinkStall marks a message delayed behind busy mesh links
	// (contention model only); Txn carries the stall length in cycles.
	KindLinkStall
	numKinds
)

var kindNames = [...]string{
	"msg-send", "msg-deliver", "miss-start", "miss-end",
	"txn-start", "txn-end", "link-stall",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Kind(?)"
}

// Event is one fixed-size observability record. Field meaning varies
// by Kind (see the Kind constants); unused fields are zero.
type Event struct {
	Cycle  engine.Cycle
	Kind   Kind
	Sub    uint8 // kind-specific subtype (e.g. coherence message type)
	Node   int16 // originating track: core or home tile
	Peer   int16 // counterpart node (message destination), -1 if none
	Region uint64
	Txn    uint64
}

// Recorder is a bounded ring of events, preallocated at capacity so
// recording never allocates. When the ring wraps, the oldest events
// are overwritten and counted as dropped.
type Recorder struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// DefaultRecorderCap bounds the recorder when the caller passes a
// non-positive capacity: 1 Mi events (~40 MB), enough for every
// message of a scale-1 workload.
const DefaultRecorderCap = 1 << 20

// NewRecorder returns a recorder holding the most recent capacity
// events (capacity <= 0 selects DefaultRecorderCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Recorder) Record(ev Event) {
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Len reports how many events are currently held.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Dropped reports how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Snapshot returns the held events oldest-first in a fresh slice.
func (r *Recorder) Snapshot() []Event {
	if !r.wrapped {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
