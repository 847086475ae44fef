package flight

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"protozoa/internal/mem"
)

func TestRingWrapDropsOldest(t *testing.T) {
	r := NewRecorder(4)
	for c := 0; c < 7; c++ {
		r.Record(Record{Cycle: 10 * 7, Region: uint64(c)})
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d records, want 4", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	snap := r.Records()
	for i, rec := range snap {
		if rec.Region != uint64(3+i) {
			t.Fatalf("snapshot[%d].Region = %d, want %d (oldest-first after wrap)", i, rec.Region, 3+i)
		}
		if rec.Seq != uint64(3+i) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, rec.Seq, 3+i)
		}
	}
}

// TestRecorderDefaultCap: a capacity <= 0 selects DefaultCap, the size
// EnableFlightRecorder(0) and the stall watchdog rely on.
func TestRecorderDefaultCap(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		r := NewRecorder(capacity)
		for i := 0; i <= DefaultCap; i++ {
			r.Record(Record{Cycle: 1})
		}
		if r.Len() != DefaultCap || r.Dropped() != 1 {
			t.Errorf("NewRecorder(%d): holds %d, dropped %d; want %d and 1",
				capacity, r.Len(), r.Dropped(), DefaultCap)
		}
	}
}

func TestStateNames(t *testing.T) {
	if got := L1StateName(L1Code(0, TransIM)); got != "I_IM" {
		t.Errorf("L1 I+IM = %q", got)
	}
	if got := L1StateName(L1Code(3, TransIS)); got != "M_IS" {
		t.Errorf("L1 M+IS = %q (the Figure 6 race state)", got)
	}
	if got := L1StateName(L1Code(1, TransNone)); got != "S" {
		t.Errorf("L1 S = %q", got)
	}
	if got := DirStateName(DirOPlus); got != "O+" {
		t.Errorf("dir O+ = %q", got)
	}
}

func TestFormatRecords(t *testing.T) {
	n := &Names{Msgs: []string{"GETS", "GETX"}}
	send := Record{Cycle: 2041, Tile: 3, Kind: KindMsgSend, Sub: 1,
		Src: 0, Dst: 3, Region: 7, Txn: 12,
		R: mem.Range{Start: 0, End: 3}, Valid: 0xf,
		Flags: FlagDirect}
	line := send.Format(n)
	for _, want := range []string{"@2041", "t3", "msg-send", "GETX", "C0->T3", "region 7", "txn 12", "[0--3]", "4w", "direct"} {
		if !strings.Contains(line, want) {
			t.Errorf("send line %q missing %q", line, want)
		}
	}
	st := Record{Cycle: 9, Tile: 0, Kind: KindL1State, Sub: CauseStore,
		Src: 0, Region: 5, From: L1Code(0, TransNone), To: L1Code(0, TransIM)}
	line = st.Format(n)
	for _, want := range []string{"l1-state", "Store", "core 0", "region 5", "I -> I_IM"} {
		if !strings.Contains(line, want) {
			t.Errorf("state line %q missing %q", line, want)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	recs := []Record{
		{Cycle: 1, Seq: 0, Tile: 2, Kind: KindMsgSend, Sub: 1, Src: 0, Dst: 2,
			Req: -1, Region: 77, Txn: 5, Flags: FlagStillOwner,
			R: mem.Range{Start: 2, End: 6}, Valid: 0x7c, Dirty: 0x40},
		{Cycle: 3, Seq: 1, Tile: 2, Kind: KindDirState, Sub: SubNone,
			Req: 4, Region: 77, From: DirSS, To: DirO},
	}
	var buf bytes.Buffer
	meta := Meta{Protocol: "mw", Cores: 16, RegionBytes: 64,
		Dropped: 9, Msgs: []string{"GETS", "GETX"}}
	if err := WriteLog(&buf, meta, recs); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotRecs, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Protocol != "mw" || gotMeta.Cores != 16 || gotMeta.Dropped != 9 ||
		gotMeta.Records != 2 || len(gotMeta.Kinds) != int(numKinds) {
		t.Fatalf("meta round trip: %+v", gotMeta)
	}
	if !reflect.DeepEqual(gotRecs, recs) {
		t.Fatalf("records round trip:\ngot  %+v\nwant %+v", gotRecs, recs)
	}
	if _, _, err := ReadLog(strings.NewReader("{\"format\":\"nope\"}\n")); err == nil {
		t.Fatal("foreign format accepted")
	}
}

// TestReconstruct pins the phase algebra against a hand-built
// transcript, including the reissue-overwrite + monotone-clamp case
// obs.LatencyBreakdown documents.
func TestReconstruct(t *testing.T) {
	recs := []Record{
		// Core 1: a clean 4-phase miss on region 7.
		{Cycle: 100, Kind: KindMissStart, Src: 1, Req: 1, Region: 7, Sub: 1},
		{Cycle: 110, Kind: KindDirAccept, Req: 1, Region: 7},
		{Cycle: 112, Kind: KindTxnStart, Req: 1, Region: 7},
		{Cycle: 126, Kind: KindTxnProcess, Req: 1, Region: 7},
		{Cycle: 140, Kind: KindTxnLastAck, Req: 1, Region: 7},
		{Cycle: 150, Kind: KindMissEnd, Src: 1, Region: 7},
		// Core 2: stamps from an abandoned round overwritten by a
		// reissue that never reached last-ack; the clamp folds the gap.
		{Cycle: 200, Kind: KindMissStart, Src: 2, Req: 2, Region: 9, Sub: 1},
		{Cycle: 210, Kind: KindDirAccept, Req: 2, Region: 9},
		{Cycle: 212, Kind: KindTxnStart, Req: 2, Region: 9},
		{Cycle: 230, Kind: KindDirAccept, Req: 2, Region: 9}, // reissue
		{Cycle: 232, Kind: KindTxnStart, Req: 2, Region: 9},
		{Cycle: 246, Kind: KindTxnProcess, Req: 2, Region: 9},
		{Cycle: 260, Kind: KindMissEnd, Src: 2, Region: 9},
		// Core 3: still open at end of log.
		{Cycle: 300, Kind: KindMissStart, Src: 3, Req: 3, Region: 1, Sub: 0},
		// A recall transaction (no requesting core) must be ignored.
		{Cycle: 305, Kind: KindTxnStart, Req: -1, Region: 1},
	}
	txns := Reconstruct(recs)
	if len(txns) != 3 {
		t.Fatalf("reconstructed %d txns, want 3", len(txns))
	}
	a := txns[0]
	if a.Core != 1 || a.Total() != 50 {
		t.Fatalf("txn A: %+v", a)
	}
	if want := [NumPhases]uint64{10, 2, 14, 14, 10}; a.Dwell != want {
		t.Fatalf("txn A dwell %v, want %v", a.Dwell, want)
	}
	b := txns[1]
	// last-ack never stamped: clamp pulls it up to process (246), so
	// fanout-acks is 0 and data-fill absorbs 260-246.
	if want := [NumPhases]uint64{30, 2, 14, 0, 14}; b.Dwell != want {
		t.Fatalf("txn B dwell %v, want %v", b.Dwell, want)
	}
	var sum uint64
	for _, d := range b.Dwell {
		sum += d
	}
	if sum != b.Total() {
		t.Fatalf("txn B dwells sum to %d, total %d", sum, b.Total())
	}
	c := txns[2]
	if !c.Open || c.Core != 3 {
		t.Fatalf("txn C should be open for core 3: %+v", c)
	}
}
