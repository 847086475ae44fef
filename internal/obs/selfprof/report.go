package selfprof

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Report is the serializable snapshot of a Profile — what -self-prof
// dumps as JSON and renders as the summary line. Take it after Run.
type Report struct {
	TotalNs     int64       `json:"total_ns"`
	TotalEvents uint64      `json:"total_events"`
	Queue       QueueTotals `json:"queue"`
}

// QueueTotals is the event queue's introspection counters.
type QueueTotals struct {
	RingPushes uint64 `json:"ring_pushes"`
	FarPushes  uint64 `json:"far_pushes"`
	MicroHits  uint64 `json:"micro_hits"`
	RingHigh   int    `json:"ring_high"`
	FarHigh    int    `json:"far_high"`
	MicroHigh  int    `json:"micro_high"`
}

// add folds another run's counters in: pushes sum, high-water marks
// take the maximum.
func (q *QueueTotals) add(o QueueTotals) {
	q.RingPushes += o.RingPushes
	q.FarPushes += o.FarPushes
	q.MicroHits += o.MicroHits
	q.RingHigh = max(q.RingHigh, o.RingHigh)
	q.FarHigh = max(q.FarHigh, o.FarHigh)
	q.MicroHigh = max(q.MicroHigh, o.MicroHigh)
}

// Report snapshots the profile. Call after Run.
func (p *Profile) Report() *Report {
	q := &p.Tiles[0]
	return &Report{
		TotalNs:     p.TotalNs,
		TotalEvents: p.TotalEvents,
		Queue: QueueTotals{
			RingPushes: q.Queue.RingPushes,
			FarPushes:  q.Queue.FarPushes,
			MicroHits:  q.MicroHits,
			RingHigh:   q.Queue.RingHigh,
			FarHigh:    q.Queue.FarHigh,
			MicroHigh:  q.Queue.MicroHigh,
		},
	}
}

// WriteJSON dumps the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

func ns(d int64) string {
	return time.Duration(d).Round(10 * time.Microsecond).String()
}

// writeLine renders the queue counters line shared by both summaries.
func (q *QueueTotals) writeLine(w io.Writer) {
	fmt.Fprintf(w, " queue: ring %d, far %d, zero-delay %d, high ring/far/micro %d/%d/%d\n",
		q.RingPushes, q.FarPushes, q.MicroHits, q.RingHigh, q.FarHigh, q.MicroHigh)
}

// WriteSummary renders the human-readable lines -self-prof prints.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "self-profile: %d events in %s\n", r.TotalEvents, ns(r.TotalNs))
	r.Queue.writeLine(w)
}
