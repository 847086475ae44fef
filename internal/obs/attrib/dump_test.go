package attrib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"protozoa/internal/mem"
)

// buildTracker populates a tracker with a mix of patterns: a private
// region, a false-shared region with an offender, a read-only region,
// and a recall invalidation.
func buildTracker() *Tracker {
	t := New(4)
	// Region 1: private to core 0.
	for i := 0; i < 10; i++ {
		t.Access(0, 1, uint8(i%4), i%3 == 0)
	}
	t.Fill(0, 1, 8)
	t.Death(0, 1, 5, 8)
	// Region 2: word-disjoint writers with heavy churn (false-shared).
	for i := 0; i < 50; i++ {
		t.Access(1, 2, 0, true)
		t.Access(2, 2, 8, true)
		t.Invalidation(2, 1, 2, 4)
		t.Upgrade(1, 2)
	}
	t.Fill(1, 2, 16)
	t.Fill(2, 2, 16)
	t.Death(1, 2, 2, 16)
	t.Death(2, 2, 2, 16)
	t.Fanout(2, 3)
	// Region 3: read-only sharing plus a recall invalidation.
	t.Access(0, 3, 0, false)
	t.Access(3, 3, 1, false)
	t.Fill(3, 3, 4)
	t.Death(3, 3, 4, 4)
	t.Invalidation(3, -1, 3, 2)
	return t
}

// encodeDump is the binary encoding the result cache persists.
func encodeDump(t *testing.T, d *Dump) []byte {
	t.Helper()
	b, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDumpRoundTrip(t *testing.T) {
	orig := buildTracker()
	d := orig.Dump()

	// Through the binary codec, as the result cache stores it:
	// decode∘encode is the identity.
	var decoded Dump
	if err := decoded.UnmarshalBinary(encodeDump(t, d)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&decoded, d) {
		t.Fatalf("decoded dump differs:\n got %+v\nwant %+v", decoded, *d)
	}
	restored, err := FromDump(&decoded)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.Summarize(), orig.Summarize(); got != want {
		t.Fatalf("Summarize mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got, want := restored.TopOffenders(0), orig.TopOffenders(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopOffenders mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(restored.InvByOffender, orig.InvByOffender) ||
		!reflect.DeepEqual(restored.InvByVictim, orig.InvByVictim) ||
		!reflect.DeepEqual(restored.UpgradesByCore, orig.UpgradesByCore) {
		t.Fatal("per-core slices mismatch")
	}
	if err := restored.Reconcile(); err != nil {
		t.Fatalf("restored tracker fails reconciliation: %v", err)
	}
	// Patterns must recompute identically.
	if got, want := restored.PatternOf(2), orig.PatternOf(2); got != want {
		t.Fatalf("region 2 pattern = %v, want %v", got, want)
	}
}

// TestDumpCanonical pins that encoding the same logical state twice
// yields identical bytes — required for the cache's byte-identical
// warm-output contract.
func TestDumpCanonical(t *testing.T) {
	a := encodeDump(t, buildTracker().Dump())
	b := encodeDump(t, buildTracker().Dump())
	if !bytes.Equal(a, b) {
		t.Fatal("dump encoding is not canonical")
	}
	// And the encoding of the restored tracker matches the original's.
	var d Dump
	if err := d.UnmarshalBinary(a); err != nil {
		t.Fatal(err)
	}
	restored, err := FromDump(&d)
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeDump(t, restored.Dump()); !bytes.Equal(a, c) {
		t.Fatal("restored tracker encodes differently from original")
	}
}

// TestDumpCodecKeepsNilInvByCore pins the distinction the encoding
// carries for InvByCore: nil (no core-attributed invalidation), present
// but empty, and present with entries all survive the round trip.
func TestDumpCodecKeepsNilInvByCore(t *testing.T) {
	d := buildTracker().Dump()
	d.Regions[0].InvByCore = nil
	d.Regions[1].InvByCore = []uint32{}
	d.Regions[2].InvByCore = []uint32{0, 7, 0, 1 << 31}
	var got Dump
	if err := got.UnmarshalBinary(encodeDump(t, d)); err != nil {
		t.Fatal(err)
	}
	for i, want := range d.Regions[:3] {
		if g := got.Regions[i].InvByCore; !reflect.DeepEqual(g, want.InvByCore) {
			t.Fatalf("region %d InvByCore = %#v, want %#v", i, g, want.InvByCore)
		}
	}
}

// TestDumpDecodeRejectsMalformed feeds the decoder bytes no encoder
// wrote: every strict prefix of a valid encoding, trailing garbage,
// counts the input cannot hold, and out-of-range values. Each must
// fail with an error and leave the dump zeroed.
func TestDumpDecodeRejectsMalformed(t *testing.T) {
	valid := encodeDump(t, buildTracker().Dump())
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	header := uv(2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0) // 2 cores, zero totals
	counters := uv(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	region := func(foot0 uint64, invByCore ...uint64) []byte {
		b := append(append([]byte(nil), header...), uv(1, 1, 4, foot0, 0, 0, 0)...)
		b = append(b, counters...)
		return append(b, uv(invByCore...)...)
	}
	// The one-region dump these cases distort decodes cleanly.
	var d Dump
	if err := d.UnmarshalBinary(append(region(1<<16-1, 3, 0, 1<<32-1), 0)); err != nil {
		t.Fatalf("well-formed one-region dump: %v", err)
	}
	cases := map[string]struct {
		b    []byte
		want string // error substring; "" accepts any error
	}{
		"empty":              {nil, "truncated"},
		"trailing garbage":   {append(append([]byte(nil), valid...), 0), "trailing"},
		"overlong varint":    {bytes.Repeat([]byte{0xff}, 11), "truncated or overlong"},
		"huge core count":    {uv(1 << 40), "exceeds"},
		"huge slice count":   {uv(2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1<<60), "exceeds the"},
		"huge region count":  {append(append([]byte(nil), header...), uv(1<<60)...), "exceeds the"},
		"bitmap overflow":    {append(region(1<<16, 3, 0, 1<<32-1), 0), "exceeds 65535"},
		"invByCore overflow": {append(region(0, 3, 0, 1<<32), 0), "exceeds 4294967295"},
	}
	for n := 0; n < len(valid); n++ {
		cases[fmt.Sprintf("prefix %d", n)] = struct {
			b    []byte
			want string
		}{valid[:n], ""}
	}
	for name, tc := range cases {
		d := Dump{Cores: 99}
		err := d.UnmarshalBinary(tc.b)
		switch {
		case err == nil:
			t.Errorf("%s: decoded without error", name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v, want it to mention %q", name, err, tc.want)
		case !reflect.DeepEqual(d, Dump{}):
			t.Errorf("%s: failed decode left %+v", name, d)
		}
	}
}

func TestFromDumpValidates(t *testing.T) {
	if _, err := FromDump(&Dump{Cores: 0}); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := buildTracker().Dump()
	bad.Regions[0].Foot = bad.Regions[0].Foot[:1]
	if _, err := FromDump(bad); err == nil {
		t.Fatal("short footprint accepted")
	}
	for _, short := range []func(d *Dump){
		func(d *Dump) { d.InvByOffender = d.InvByOffender[:1] },
		func(d *Dump) { d.InvByVictim = append(d.InvByVictim, 0) },
		func(d *Dump) { d.UpgradesByCore = nil },
	} {
		bad = buildTracker().Dump()
		short(bad)
		if _, err := FromDump(bad); err == nil || !strings.Contains(err.Error(), "entries, want 4") {
			t.Fatalf("per-core slice of the wrong length: err = %v", err)
		}
	}
	bad = buildTracker().Dump()
	bad.Regions[1].ID = bad.Regions[0].ID
	if _, err := FromDump(bad); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("duplicate region: err = %v", err)
	}
}

// TestFromDumpAllocatesInProportion pins that a restore allocates in
// proportion to the dump: a one-region dump of a many-core machine must
// not cost a whole chunk of per-core cells (chunkRegions*cores of them),
// since the result cache decodes dumps from disk and bounds what a
// payload of a given size may allocate.
func TestFromDumpAllocatesInProportion(t *testing.T) {
	const cores = 1024
	tr := New(cores)
	tr.Access(cores-1, 7, 3, true)
	tr.Fill(cores-1, 7, 8)
	tr.Death(cores-1, 7, 1, 8)
	enc := encodeDump(t, tr.Dump())
	var d Dump
	if err := d.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	restored, err := FromDump(&d)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(enc)+64<<10); got > bound {
		t.Fatalf("restoring a %d-byte dump allocated %d bytes, bound %d", len(enc), got, bound)
	}
	if !bytes.Equal(encodeDump(t, restored.Dump()), enc) {
		t.Fatal("restored tracker encodes differently from original")
	}
}

// TestRestoredTrackerKeepsGrowing feeds a restored tracker — whose last
// chunk FromDump sized to the regions it restored — past that chunk's
// end, and requires it to end up identical to the original tracker fed
// the same calls.
func TestRestoredTrackerKeepsGrowing(t *testing.T) {
	const cores = 4
	feed := func(tr *Tracker, from, to mem.RegionID) {
		for r := from; r < to; r++ {
			c := int(r) % cores
			tr.Access(c, r, uint8(r%mem.MaxRegionWords), r%3 == 0)
			tr.Fill(c, r, 4)
			tr.Death(c, r, 2, 4)
			if r%5 == 0 {
				tr.Invalidation(r, (c+1)%cores, c, 2)
			}
		}
	}
	orig := New(cores)
	feed(orig, 0, chunkRegions+10) // a short second chunk once restored
	restored, err := FromDump(orig.Dump())
	if err != nil {
		t.Fatal(err)
	}
	feed(orig, 5, 3*chunkRegions)
	feed(restored, 5, 3*chunkRegions)
	if a, b := encodeDump(t, orig.Dump()), encodeDump(t, restored.Dump()); !bytes.Equal(a, b) {
		t.Fatal("restored tracker diverged from the original after growing")
	}
	if got, want := restored.Summarize(), orig.Summarize(); got != want {
		t.Fatalf("Summarize mismatch:\n got %+v\nwant %+v", got, want)
	}
	if err := restored.Reconcile(); err != nil {
		t.Fatal(err)
	}
}
