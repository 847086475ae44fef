package attrib

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"protozoa/internal/mem"
)

// RegionDump is one region's serialized attribution state.
type RegionDump struct {
	ID   mem.RegionID
	Foot []mem.Bitmap // reader bitmaps [0,cores), writer bitmaps [cores,2*cores)

	Accesses uint64
	Fetched  uint64
	Used     uint64
	Unused   uint64
	Fills    uint64
	Deaths   uint64
	Invals   uint64
	InvWords uint64
	Upgrades uint64
	Probes   uint64

	// InvByCore is omitted (nil) when the region saw no core-attributed
	// invalidation — the common case — to keep payloads small.
	InvByCore  []uint32
	RecallInvs uint32
}

// Dump is a Tracker's complete serializable state, used by the result
// cache to persist attribution alongside a cell's stats. Regions are
// sorted by ID so the encoding is canonical: the same tracker state
// always serializes to the same bytes.
type Dump struct {
	Cores   int
	Regions []RegionDump

	FetchedWords uint64
	UsedWords    uint64
	UnusedWords  uint64
	Fills        uint64
	Deaths       uint64

	Invalidations       uint64
	InvWordsLost        uint64
	Upgrades            uint64
	ProbeMsgs           uint64
	RecallInvalidations uint64

	InvByOffender  []uint64
	InvByVictim    []uint64
	UpgradesByCore []uint64
}

// Dump snapshots the tracker into a serializable form. Classification
// state (patterns, dirty lists) is intentionally not captured: FromDump
// rebuilds it deterministically from the footprints.
func (t *Tracker) Dump() *Dump {
	d := &Dump{
		Cores:               t.cores,
		Regions:             make([]RegionDump, t.n),
		FetchedWords:        t.FetchedWords,
		UsedWords:           t.UsedWords,
		UnusedWords:         t.UnusedWords,
		Fills:               t.Fills,
		Deaths:              t.Deaths,
		Invalidations:       t.Invalidations,
		InvWordsLost:        t.InvWordsLost,
		Upgrades:            t.Upgrades,
		ProbeMsgs:           t.ProbeMsgs,
		RecallInvalidations: t.RecallInvalidations,
		InvByOffender:       append([]uint64(nil), t.InvByOffender...),
		InvByVictim:         append([]uint64(nil), t.InvByVictim...),
		UpgradesByCore:      append([]uint64(nil), t.UpgradesByCore...),
	}
	type idSlot struct {
		id mem.RegionID
		s  int32
	}
	order := make([]idSlot, t.n)
	for s := range order {
		r, _ := t.region(int32(s))
		order[s] = idSlot{r.id, int32(s)}
	}
	slices.SortFunc(order, func(a, b idSlot) int { return cmp.Compare(a.id, b.id) })
	c := t.cores
	foot := make([]mem.Bitmap, 2*c*len(order)) // one backing array for every footprint
	for i, o := range order {
		r, cells := t.region(o.s)
		rd := &d.Regions[i]
		*rd = RegionDump{
			ID:         r.id,
			Foot:       foot[2*c*i : 2*c*(i+1) : 2*c*(i+1)],
			Accesses:   r.accesses,
			Fetched:    r.fetched,
			Used:       r.used,
			Unused:     r.unused,
			Fills:      r.fills,
			Deaths:     r.deaths,
			Invals:     r.invals,
			InvWords:   r.invWords,
			Upgrades:   r.upgrades,
			Probes:     r.probes,
			RecallInvs: r.recallInvs,
		}
		for k, cell := range cells {
			rd.Foot[k], rd.Foot[c+k] = cell.read, cell.write
			if cell.invs != 0 {
				if rd.InvByCore == nil { // every earlier core's count was zero
					rd.InvByCore = make([]uint32, c)
				}
				rd.InvByCore[k] = cell.invs
			}
		}
	}
	return d
}

// FromDump reconstructs a Tracker from a Dump. Every region starts
// dirty, so pattern classification is recomputed from the restored
// footprints on the next snapshot — the rebuilt tracker is
// indistinguishable from the one that produced the dump. FromDump is
// where a dump is validated: a core count, per-core slice length or
// region list that no tracker could have produced is an error.
func FromDump(d *Dump) (*Tracker, error) {
	if d.Cores <= 0 {
		return nil, fmt.Errorf("attrib: dump has invalid core count %d", d.Cores)
	}
	perCore := []struct {
		name string
		v    []uint64
	}{
		{"InvByOffender", d.InvByOffender},
		{"InvByVictim", d.InvByVictim},
		{"UpgradesByCore", d.UpgradesByCore},
	}
	for _, s := range perCore {
		if len(s.v) != d.Cores {
			return nil, fmt.Errorf("attrib: dump %s has %d entries, want %d", s.name, len(s.v), d.Cores)
		}
	}
	for i := range d.Regions {
		rd := &d.Regions[i]
		if len(rd.Foot) != 2*d.Cores {
			return nil, fmt.Errorf("attrib: region %d footprint has %d entries, want %d",
				rd.ID, len(rd.Foot), 2*d.Cores)
		}
		if rd.InvByCore != nil && len(rd.InvByCore) != d.Cores {
			return nil, fmt.Errorf("attrib: region %d invByCore has %d entries, want %d",
				rd.ID, len(rd.InvByCore), d.Cores)
		}
	}
	t := New(d.Cores)
	copy(t.InvByOffender, d.InvByOffender)
	copy(t.InvByVictim, d.InvByVictim)
	copy(t.UpgradesByCore, d.UpgradesByCore)
	t.FetchedWords = d.FetchedWords
	t.UsedWords = d.UsedWords
	t.UnusedWords = d.UnusedWords
	t.Fills = d.Fills
	t.Deaths = d.Deaths
	t.Invalidations = d.Invalidations
	t.InvWordsLost = d.InvWordsLost
	t.Upgrades = d.Upgrades
	t.ProbeMsgs = d.ProbeMsgs
	t.RecallInvalidations = d.RecallInvalidations

	// The region count is validated, so the storage for exactly these
	// regions comes out of two bulk allocations, cut into chunks the
	// regions then fill in order. Sizing the last chunk to the regions
	// left, instead of a whole chunk, keeps what a restore allocates in
	// proportion to the dump, whatever its core count.
	n, c := len(d.Regions), d.Cores
	t.index = make(map[mem.RegionID]int32, n)
	t.dirtyList = make([]int32, 0, n)
	states, cells := make([]regionState, n), make([]coreCell, n*c)
	t.chunks = make([]chunk, 0, (n+chunkMask)>>chunkShift)
	for lo := 0; lo < n; lo += chunkRegions {
		hi := min(lo+chunkRegions, n)
		t.chunks = append(t.chunks, chunk{states: states[lo:hi:hi], cells: cells[lo*c : hi*c : hi*c]})
	}
	for i := range d.Regions {
		rd := &d.Regions[i]
		if _, dup := t.index[rd.ID]; dup {
			return nil, fmt.Errorf("attrib: region %d appears twice", rd.ID)
		}
		r, rcells := t.region(t.add(rd.ID)) // dirty: classification is recomputed on the next snapshot
		r.accesses, r.fetched, r.used, r.unused = rd.Accesses, rd.Fetched, rd.Used, rd.Unused
		r.fills, r.deaths = rd.Fills, rd.Deaths
		r.invals, r.invWords = rd.Invals, rd.InvWords
		r.upgrades, r.probes, r.recallInvs = rd.Upgrades, rd.Probes, rd.RecallInvs
		for k := range rcells {
			rcells[k].read, rcells[k].write = rd.Foot[k], rd.Foot[c+k]
		}
		for k, v := range rd.InvByCore {
			rcells[k].invs = v
		}
	}
	return t, nil
}

// The binary encoding, written by AppendBinary and read by
// UnmarshalBinary, is what the result cache persists. Every integer is
// a uvarint:
//
//	dump      = Cores totals×10 perCore×3 nRegions region×nRegions
//	perCore   = n value×n        (InvByOffender, InvByVictim, UpgradesByCore)
//	region    = idDelta nFoot foot×nFoot counters×10 invByCore RecallInvs
//	invByCore = 0 (nil) | n+1 value×n
//
// totals and counters are the uint64 fields in declaration order (see
// totals and counters). A region's idDelta is its ID minus the previous
// region's (the first region's minus zero), wrapping modulo 2^64: Dump's
// ascending order makes it one or two bytes, and any order still decodes
// to the same IDs. Every value is an integer written whole, so the round
// trip is exact.

// totals lists the Dump's run-total counters in encoding order.
func (d *Dump) totals() [10]*uint64 {
	return [...]*uint64{&d.FetchedWords, &d.UsedWords, &d.UnusedWords, &d.Fills, &d.Deaths,
		&d.Invalidations, &d.InvWordsLost, &d.Upgrades, &d.ProbeMsgs, &d.RecallInvalidations}
}

// counters lists a region's counters in encoding order.
func (rd *RegionDump) counters() [10]*uint64 {
	return [...]*uint64{&rd.Accesses, &rd.Fetched, &rd.Used, &rd.Unused, &rd.Fills,
		&rd.Deaths, &rd.Invals, &rd.InvWords, &rd.Upgrades, &rd.Probes}
}

// minRegionBytes is the smallest encoded region: a one-byte varint for
// each of idDelta, nFoot, the ten counters, invByCore and RecallInvs.
const minRegionBytes = 14

// AppendBinary appends the dump's binary encoding to b. It implements
// encoding.BinaryAppender.
func (d *Dump) AppendBinary(b []byte) ([]byte, error) {
	if d.Cores < 0 {
		return b, fmt.Errorf("attrib: cannot encode negative core count %d", d.Cores)
	}
	// Most footprint bitmaps and counters are zero: about two bytes per
	// bitmap and one per counter is a close estimate.
	b = slices.Grow(b, 64+len(d.Regions)*(32+4*d.Cores))
	b = binary.AppendUvarint(b, uint64(d.Cores))
	for _, p := range d.totals() {
		b = binary.AppendUvarint(b, *p)
	}
	for _, s := range [][]uint64{d.InvByOffender, d.InvByVictim, d.UpgradesByCore} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		for _, v := range s {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(d.Regions)))
	var prev mem.RegionID
	for i := range d.Regions {
		rd := &d.Regions[i]
		b = binary.AppendUvarint(b, uint64(rd.ID-prev))
		prev = rd.ID
		b = binary.AppendUvarint(b, uint64(len(rd.Foot)))
		for _, f := range rd.Foot {
			b = binary.AppendUvarint(b, uint64(f))
		}
		for _, p := range rd.counters() {
			b = binary.AppendUvarint(b, *p)
		}
		if rd.InvByCore == nil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(rd.InvByCore))+1)
			for _, v := range rd.InvByCore {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
		b = binary.AppendUvarint(b, uint64(rd.RecallInvs))
	}
	return b, nil
}

// UnmarshalBinary replaces d with the dump encoded in data, which must
// hold exactly one AppendBinary encoding. It implements
// encoding.BinaryUnmarshaler. The bytes are treated as untrusted: every
// count is checked against the bytes left before anything is allocated,
// so a malformed input fails with an error, never a panic or an
// allocation out of proportion to len(data). Whether the decoded dump
// describes a possible tracker is FromDump's to check.
func (d *Dump) UnmarshalBinary(data []byte) error {
	r := decoder{b: data}
	*d = Dump{Cores: int(r.bounded(math.MaxInt32))}
	for _, p := range d.totals() {
		*p = r.uvarint()
	}
	d.InvByOffender = r.uint64s()
	d.InvByVictim = r.uint64s()
	d.UpgradesByCore = r.uint64s()
	d.Regions = make([]RegionDump, r.count(minRegionBytes))
	// Footprints share one backing array sized for the usual 2*Cores
	// bitmaps per region; each bitmap takes at least a byte, so the bytes
	// left cap it.
	foot := make([]mem.Bitmap, min(2*d.Cores*len(d.Regions), len(r.b)))
	var prev mem.RegionID
	for i := range d.Regions {
		rd := &d.Regions[i]
		rd.ID = prev + mem.RegionID(r.uvarint())
		prev = rd.ID
		if n := r.count(1); n <= len(foot) {
			rd.Foot, foot = foot[:n:n], foot[n:]
		} else {
			rd.Foot = make([]mem.Bitmap, n)
		}
		for j := range rd.Foot {
			rd.Foot[j] = mem.Bitmap(r.bounded(uint64(^mem.Bitmap(0))))
		}
		for _, p := range rd.counters() {
			*p = r.uvarint()
		}
		if n := r.count(1); n > 0 {
			// n-1 entries follow; the +1 bias keeps an empty slice
			// distinct from the nil that marks "no invalidations".
			rd.InvByCore = make([]uint32, n-1)
			for j := range rd.InvByCore {
				rd.InvByCore[j] = uint32(r.bounded(math.MaxUint32))
			}
		}
		rd.RecallInvs = uint32(r.bounded(math.MaxUint32))
		if r.err != nil {
			break
		}
	}
	if len(r.b) > 0 {
		r.fail(fmt.Errorf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		*d = Dump{}
		return fmt.Errorf("attrib: decode dump: %w", r.err)
	}
	return nil
}

var errTruncated = errors.New("truncated or overlong varint")

// decoder reads uvarints from an untrusted buffer. The first failure
// sticks and drops the unread bytes, so later reads return zero and
// callers check err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (r *decoder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// uvarint reads one uvarint. Most values in a dump are below 128, so
// the one-byte case skips binary.Uvarint.
func (r *decoder) uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 {
		r.b = b[1:]
		return uint64(b[0])
	}
	return r.uvarintSlow()
}

func (r *decoder) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bounded reads a uvarint that must not exceed limit.
func (r *decoder) bounded(limit uint64) uint64 {
	v := r.uvarint()
	if v > limit {
		r.fail(fmt.Errorf("value %d exceeds %d", v, limit))
		return 0
	}
	return v
}

// count reads an element count for elements of at least size encoded
// bytes each. A count the remaining bytes cannot hold is an error, which
// bounds every allocation sized by a count by the input length.
func (r *decoder) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// uint64s reads a length-prefixed slice of uvarints.
func (r *decoder) uint64s() []uint64 {
	s := make([]uint64, r.count(1))
	for i := range s {
		s[i] = r.uvarint()
	}
	return s
}
