package flight

// Transaction reconstruction: fold a record stream back into
// per-miss timelines with per-phase dwell times. The phase algebra is
// the same as obs.LatencyBreakdown — stamps are overwritten as records
// arrive (so an abandoned round's stamps fold away exactly like a
// reissued upgrade's do) and then clamped into a monotone chain — so
// the reconstructed dwell sums reconcile exactly against the PR 3
// latency breakdown: summed per phase over completed transactions they
// equal LatencyBreakdown.PhaseSum, and each transaction's dwells sum to
// its complete-issue latency.

// NumPhases and the phase names mirror obs.Phase.
const NumPhases = 5

// PhaseNames names the five phases in order.
var PhaseNames = [NumPhases]string{
	"req-noc", "dir-queue", "l2-access", "fanout-acks", "data-fill",
}

// Txn is one reconstructed miss transaction.
type Txn struct {
	Core   int
	Region uint64
	Sub    uint8 // request message code at issue
	Issue  uint64
	// Complete is the fill/grant cycle; zero when Open.
	Complete uint64
	// Chain is the monotone-clamped stamp chain: issue, dir-accept,
	// activate, process, last-ack, complete.
	Chain [NumPhases + 1]uint64
	// Dwell[p] = Chain[p+1] - Chain[p]; the dwells sum to
	// Complete - Issue exactly.
	Dwell [NumPhases]uint64
	// Open marks a transaction still outstanding when the log ended —
	// the stall watchdog's quarry.
	Open bool
}

// Total is the transaction's full latency (0 while Open).
func (t *Txn) Total() uint64 {
	if t.Open {
		return 0
	}
	return t.Complete - t.Issue
}

// Reconstruct folds a cycle-ordered record stream (Recorder.Records or
// a parsed log) into per-miss transactions, in completion order, with
// still-open transactions appended last. The in-order cores have at
// most one miss outstanding each, so tracking is a per-core slot, like
// obs.LatencyBreakdown's stamp table. Directory-phase records tie to
// the requesting core via Req; inclusion recalls (Req < 0) have no
// requesting miss and are skipped.
func Reconstruct(recs []Record) []Txn {
	open := map[int]*Txn{}
	var out []Txn
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case KindMissStart:
			open[int(r.Src)] = &Txn{
				Core: int(r.Src), Region: r.Region, Sub: r.Sub,
				Issue: uint64(r.Cycle), Open: true,
			}
		case KindDirAccept, KindTxnStart, KindTxnProcess, KindTxnLastAck:
			t := open[int(r.Req)]
			if t == nil || t.Region != r.Region {
				continue
			}
			// Overwrite semantics: a reissued request restamps, and the
			// clamp below folds the abandoned round into req-noc.
			switch r.Kind {
			case KindDirAccept:
				t.Chain[1] = uint64(r.Cycle)
			case KindTxnStart:
				t.Chain[2] = uint64(r.Cycle)
			case KindTxnProcess:
				t.Chain[3] = uint64(r.Cycle)
			case KindTxnLastAck:
				t.Chain[4] = uint64(r.Cycle)
			}
		case KindMissEnd:
			t := open[int(r.Src)]
			if t == nil {
				continue
			}
			delete(open, int(r.Src))
			t.Complete = uint64(r.Cycle)
			t.Open = false
			t.close()
			out = append(out, *t)
		}
	}
	// Still-open transactions keep Open=true and their raw stamps; sort
	// order (by issue) is deterministic because map iteration is not.
	stalled := make([]*Txn, 0, len(open))
	for _, t := range open {
		stalled = append(stalled, t)
	}
	for i := 1; i < len(stalled); i++ {
		for j := i; j > 0 && less(stalled[j], stalled[j-1]); j-- {
			stalled[j], stalled[j-1] = stalled[j-1], stalled[j]
		}
	}
	for _, t := range stalled {
		out = append(out, *t)
	}
	return out
}

func less(a, b *Txn) bool {
	if a.Issue != b.Issue {
		return a.Issue < b.Issue
	}
	return a.Core < b.Core
}

// close clamps the stamp chain monotone and derives the dwells —
// exactly obs.LatencyBreakdown.Complete's algebra.
func (t *Txn) close() {
	t.Chain[0] = t.Issue
	t.Chain[NumPhases] = t.Complete
	for i := 1; i <= NumPhases; i++ {
		if t.Chain[i] < t.Chain[i-1] {
			t.Chain[i] = t.Chain[i-1]
		}
	}
	for p := 0; p < NumPhases; p++ {
		t.Dwell[p] = t.Chain[p+1] - t.Chain[p]
	}
}
