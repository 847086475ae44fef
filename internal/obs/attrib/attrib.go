// Package attrib attributes coherence traffic to the regions and cores
// that cause it. A Tracker accumulates, per region, the word-level
// reader/writer footprint of every core, the fetched-vs-used word
// balance of every fill, and the invalidations and upgrades the region
// suffered — enough to answer the two questions the paper's motivation
// rests on: what fraction of fetched data is ever used (§1-2 cache
// utilization), and which sharing pattern explains the traffic
// (private, read-only, false-shared, migratory, read-write).
//
// Like the rest of internal/obs, the package knows nothing about the
// protocol engine: the core wires nil-checked hooks into its L1 and
// directory paths (see core.System.EnableAttribution), so a run with
// attribution disabled pays one predictable branch per site.
//
// Accounting discipline: fetched words are counted once per fill, and
// classified used/unused exactly once when the block dies (eviction,
// invalidation, or the end-of-run residual flush) — so after a
// complete run, FetchedWords == UsedWords + UnusedWords holds exactly
// (Reconcile checks it, globally and per region).
package attrib

import (
	"fmt"
	"slices"
	"sort"

	"protozoa/internal/mem"
)

// Pattern classifies a region's observed sharing behaviour from its
// reader/writer word footprints and invalidation history.
type Pattern uint8

const (
	// Untouched: no recorded accesses (a region seen only via probes).
	Untouched Pattern = iota
	// Private: exactly one core touched the region.
	Private
	// ReadOnly: multiple cores, no writer.
	ReadOnly
	// Partitioned: multiple cores with word-disjoint footprints that
	// the protocol resolved without sustained coherence churn
	// (Protozoa-MW on the Figure 1 counter line — at most a cold-start
	// transient while the predictor converges).
	Partitioned
	// FalseShared: word-disjoint sharing that still causes sustained
	// invalidation/upgrade churn — cores fight over a region none of
	// whose words they actually share (what region-granularity
	// coherence does to the Figure 1 counter line).
	FalseShared
	// Migratory: cores conflict on words they both read and write —
	// the read-modify-write token (lock, shared counter) that migrates
	// core to core.
	Migratory
	// ReadWrite: true word-level read-write sharing (producer/consumer
	// and everything else).
	ReadWrite

	// NumPatterns sizes per-pattern count arrays.
	NumPatterns
)

func (p Pattern) String() string {
	switch p {
	case Untouched:
		return "untouched"
	case Private:
		return "private"
	case ReadOnly:
		return "read-only"
	case Partitioned:
		return "partitioned"
	case FalseShared:
		return "false-shared"
	case Migratory:
		return "migratory"
	case ReadWrite:
		return "read-write"
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// Storage. A grid keeps every cell's tracker alive until it renders,
// so the tracker's storage is laid out for the garbage collector: no
// heap object per region, and nothing in the per-region storage that
// the collector has to scan. A region is an int32 slot; slot s lives at
// index s&chunkMask of chunk s>>chunkShift. Chunks are allocated whole
// and never move, so growth costs a few allocations per chunk and never
// copies region state the way doubling one flat slice would. The one
// exception is a restored tracker's last chunk, which FromDump sizes to
// the regions it restores.
const (
	chunkShift   = 8
	chunkRegions = 1 << chunkShift // regions per chunk
	chunkMask    = chunkRegions - 1
)

// regionState is one region's scalar attribution. Its per-core data
// lives in the chunk's cells.
type regionState struct {
	id mem.RegionID

	accesses              uint64 // CPU references (churn-rate denominator)
	fetched, used, unused uint64 // words
	fills, deaths         uint64
	invals                uint64 // invalidation events that took words from an L1
	invWords              uint64 // words those events took
	upgrades              uint64
	probes                uint64 // directory probe messages fanned out
	recallInvs            uint32 // invalidations from L2 inclusion recalls (no core)

	pattern Pattern
	dirty   bool // footprint or invals changed since last classify
}

// coreCell is one core's share of one region's attribution.
type coreCell struct {
	read, write mem.Bitmap // words the core read / wrote
	invs        uint32     // invalidation events the core's requests caused
}

// chunk stores up to chunkRegions regions: their scalar state, and
// cores cells per region, region i's at [i*cores, (i+1)*cores).
type chunk struct {
	states []regionState
	cells  []coreCell
}

// Tracker accumulates attribution for one run. It is single-goroutine
// like the machine it observes; snapshot methods (Summary, TopOffenders,
// PatternCounts, ...) may be called mid-run or after.
//
// The exported counter fields are hot-path-updated totals; treat them
// as read-only outside this package.
type Tracker struct {
	cores  int
	index  map[mem.RegionID]int32 // region -> slot
	chunks []chunk
	n      int32 // slots in use

	// memo holds each core's most recent lookup (memo[cores] serves
	// the calls that name no core). A core's consecutive calls often
	// name one region (a fill follows its miss, an invalidation the
	// block's death), but the cores' calls interleave, so a single
	// shared memo would miss on almost every call.
	memo []lookup

	// dirtyList holds slots whose classification is stale; flushed
	// lazily so the per-access cost stays a bitmap OR plus a flag. Its
	// capacity always covers every slot in use, so marking a tracked
	// region dirty never allocates.
	dirtyList     []int32
	patternCounts [NumPatterns]uint64

	// Run totals, in words unless noted.
	FetchedWords uint64 // words brought into L1s by fills
	UsedWords    uint64 // fetched words touched before their block died
	UnusedWords  uint64 // fetched words never touched (wasted NoC bytes)
	Fills        uint64
	Deaths       uint64

	Invalidations       uint64 // events where a probe took words from an L1
	InvWordsLost        uint64 // words those events took
	Upgrades            uint64 // write-to-Shared upgrade misses
	ProbeMsgs           uint64 // directory probe messages fanned out
	RecallInvalidations uint64 // invalidations from L2 inclusion recalls

	InvByOffender  []uint64 // per requester core whose request invalidated others
	InvByVictim    []uint64 // per core that lost words (== stats.PerCore Invalidations)
	UpgradesByCore []uint64
}

// New returns a Tracker for a machine with the given core count.
func New(cores int) *Tracker {
	return &Tracker{
		cores:          cores,
		index:          make(map[mem.RegionID]int32),
		memo:           make([]lookup, cores+1),
		InvByOffender:  make([]uint64, cores),
		InvByVictim:    make([]uint64, cores),
		UpgradesByCore: make([]uint64, cores),
	}
}

// Cores reports the tracked machine's core count.
func (t *Tracker) Cores() int { return t.cores }

// RegionCount reports how many distinct regions have attribution state.
func (t *Tracker) RegionCount() int { return int(t.n) }

// at locates slot s: its chunk and its index within the chunk.
func (t *Tracker) at(s int32) (*chunk, int) {
	return &t.chunks[s>>chunkShift], int(s & chunkMask)
}

// region returns slot s's state and per-core cells.
func (t *Tracker) region(s int32) (*regionState, []coreCell) {
	ch, i := t.at(s)
	lo := i * t.cores
	return &ch.states[i], ch.cells[lo : lo+t.cores : lo+t.cores]
}

// lookup is one memo entry: a region and its slot.
type lookup struct {
	id   mem.RegionID
	slot int32
	set  bool
}

// slot returns the region's slot, creating its state on first sight.
// by picks the memo that serves the lookup: the calling core, or
// t.cores when no core is behind the call.
func (t *Tracker) slot(by int, id mem.RegionID) int32 {
	m := &t.memo[by]
	if m.set && m.id == id {
		return m.slot
	}
	s, ok := t.index[id]
	if !ok {
		s = t.add(id)
	}
	*m = lookup{id, s, true}
	return s
}

// add gives a new region the next slot, dirty so the next snapshot
// classifies it.
func (t *Tracker) add(id mem.RegionID) int32 {
	s := t.n
	if k := int(s >> chunkShift); k == len(t.chunks) {
		t.chunks = append(t.chunks, t.newChunk())
	} else if ch := &t.chunks[k]; int(s&chunkMask) == len(ch.states) {
		// A restored tracker's short last chunk is full: complete it.
		full := t.newChunk()
		copy(full.states, ch.states)
		copy(full.cells, ch.cells)
		*ch = full
	}
	if cap(t.dirtyList) <= int(s) {
		t.dirtyList = slices.Grow(t.dirtyList, int(s)+1-len(t.dirtyList))
	}
	t.n++
	ch, i := t.at(s)
	ch.states[i].id = id
	t.index[id] = s
	t.markDirty(s, &ch.states[i])
	t.patternCounts[Untouched]++
	return s
}

func (t *Tracker) newChunk() chunk {
	return chunk{
		states: make([]regionState, chunkRegions),
		cells:  make([]coreCell, chunkRegions*t.cores),
	}
}

func (t *Tracker) markDirty(s int32, r *regionState) {
	if !r.dirty {
		r.dirty = true
		t.dirtyList = append(t.dirtyList, s)
	}
}

// Access records one CPU reference: core touched word w of the region,
// reading or writing. Called on L1 hits and misses alike — it tracks
// the program's footprint, not the protocol's behaviour.
func (t *Tracker) Access(core int, region mem.RegionID, w uint8, write bool) {
	s := t.slot(core, region)
	ch, i := t.at(s)
	r := &ch.states[i]
	r.accesses++
	cell := &ch.cells[i*t.cores+core]
	foot := &cell.read
	if write {
		foot = &cell.write
	}
	if !foot.Has(w) {
		*foot = foot.Set(w)
		t.markDirty(s, r)
	}
}

// state returns the region's scalar state; by is as for slot.
func (t *Tracker) state(by int, region mem.RegionID) *regionState {
	ch, i := t.at(t.slot(by, region))
	return &ch.states[i]
}

// Fill records a data fill of the given word count into core's L1.
func (t *Tracker) Fill(core int, region mem.RegionID, words int) {
	r := t.state(core, region)
	r.fetched += uint64(words)
	r.fills++
	t.FetchedWords += uint64(words)
	t.Fills++
}

// Death records a block leaving an L1 (eviction, invalidation, or the
// end-of-run residual flush): used of its total words were touched.
func (t *Tracker) Death(core int, region mem.RegionID, used, total int) {
	r := t.state(core, region)
	r.used += uint64(used)
	r.unused += uint64(total - used)
	r.deaths++
	t.UsedWords += uint64(used)
	t.UnusedWords += uint64(total - used)
	t.Deaths++
}

// Invalidation records a probe taking wordsLost words from victim's L1
// on behalf of requester core offender (-1 when no core is behind it —
// an L2 inclusion recall).
func (t *Tracker) Invalidation(region mem.RegionID, offender, victim, wordsLost int) {
	s := t.slot(victim, region)
	ch, i := t.at(s)
	r := &ch.states[i]
	r.invals++
	r.invWords += uint64(wordsLost)
	t.Invalidations++
	t.InvWordsLost += uint64(wordsLost)
	t.InvByVictim[victim]++
	if offender >= 0 {
		ch.cells[i*t.cores+offender].invs++
		t.InvByOffender[offender]++
	} else {
		r.recallInvs++
		t.RecallInvalidations++
	}
	t.markDirty(s, r)
}

// Upgrade records a write-to-Shared upgrade miss by core on the region.
func (t *Tracker) Upgrade(core int, region mem.RegionID) {
	t.state(core, region).upgrades++
	t.Upgrades++
	t.UpgradesByCore[core]++
}

// Fanout records the directory probing `probes` L1s for the region.
func (t *Tracker) Fanout(region mem.RegionID, probes int) {
	t.state(t.cores, region).probes += uint64(probes)
	t.ProbeMsgs += uint64(probes)
}

// falseShareAccessesPerChurn is the sustained-churn gate for the
// false-shared label: more than one invalidation or upgrade per this
// many accesses to the region. Steady ping-pong invalidates every few
// accesses (rate ~1 churn per 2 accesses per writer); a cold-start
// transient is a constant, so its rate falls below any fixed threshold
// as the run grows.
const falseShareAccessesPerChurn = 64

// classify derives the region's sharing pattern from its footprints.
func classify(r *regionState, cells []coreCell) Pattern {
	touchers, writers := 0, 0
	for _, c := range cells {
		if c.read|c.write != 0 {
			touchers++
		}
		if c.write != 0 {
			writers++
		}
	}
	switch {
	case touchers == 0:
		return Untouched
	case touchers == 1:
		return Private
	case writers == 0:
		return ReadOnly
	}
	// Word-level conflict scan: a conflict word is written by someone
	// and touched by at least one other core. Migratory sharing is the
	// special conflict where every core on the word also writes it
	// (the RMW token); one writer plus readers is producer/consumer.
	conflict, migratory := false, true
	for w := uint8(0); w < mem.MaxRegionWords; w++ {
		wTouch, wWrite := 0, 0
		readerOnly := false
		for _, c := range cells {
			rd, wr := c.read.Has(w), c.write.Has(w)
			if rd || wr {
				wTouch++
			}
			if wr {
				wWrite++
			}
			if rd && !wr {
				readerOnly = true
			}
		}
		if wWrite >= 1 && wTouch >= 2 {
			conflict = true
			if readerOnly || wWrite < 2 {
				migratory = false
			}
		}
	}
	if !conflict {
		// Word-disjoint sharing: whether it was a problem is empirical.
		// Region-granularity coherence churns over it (sustained
		// invalidations, or upgrade ping-pong under single-writer
		// revocation); word-granularity coherence lets the cores
		// coexist after a bounded cold-start transient. The rate gate
		// separates the two: real false-sharing churn scales with the
		// access count, a predictor-convergence transient is O(1), so
		// its rate vanishes on any run long enough to matter.
		if (r.invals+r.upgrades)*falseShareAccessesPerChurn > r.accesses {
			return FalseShared
		}
		return Partitioned
	}
	if migratory {
		return Migratory
	}
	return ReadWrite
}

// flushDirty re-classifies every region whose inputs changed since the
// last snapshot and maintains the per-pattern counts incrementally.
func (t *Tracker) flushDirty() {
	for _, s := range t.dirtyList {
		r, cells := t.region(s)
		if np := classify(r, cells); np != r.pattern {
			t.patternCounts[r.pattern]--
			t.patternCounts[np]++
			r.pattern = np
		}
		r.dirty = false
	}
	t.dirtyList = t.dirtyList[:0]
}

// PatternCounts reports how many regions currently classify under each
// pattern.
func (t *Tracker) PatternCounts() [NumPatterns]uint64 {
	t.flushDirty()
	return t.patternCounts
}

// FalseSharedRegions reports the regions currently classified
// false-shared.
func (t *Tracker) FalseSharedRegions() uint64 {
	t.flushDirty()
	return t.patternCounts[FalseShared]
}

// PatternOf reports a region's current classification (Untouched when
// the region has no attribution state).
func (t *Tracker) PatternOf(region mem.RegionID) Pattern {
	s, ok := t.index[region]
	if !ok {
		return Untouched
	}
	t.flushDirty()
	r, _ := t.region(s)
	return r.pattern
}

// UtilPct is the fill-side cache utilization: the percentage of
// fetched words touched before their block died. 100 when nothing was
// fetched.
func (t *Tracker) UtilPct() float64 {
	if t.FetchedWords == 0 {
		return 100
	}
	return 100 * float64(t.UsedWords) / float64(t.FetchedWords)
}

// WastedBytes is the NoC payload bytes fetched but never used.
func (t *Tracker) WastedBytes() uint64 { return t.UnusedWords * mem.WordBytes }

// Summary is a whole-run attribution rollup.
type Summary struct {
	Regions                              int
	FetchedWords, UsedWords, UnusedWords uint64
	UtilPct                              float64
	WastedBytes                          uint64
	Invalidations, InvWordsLost          uint64
	Upgrades, ProbeMsgs                  uint64
	RecallInvalidations                  uint64
	Patterns                             [NumPatterns]uint64
}

// Summarize rolls the tracker up.
func (t *Tracker) Summarize() Summary {
	return Summary{
		Regions:             int(t.n),
		FetchedWords:        t.FetchedWords,
		UsedWords:           t.UsedWords,
		UnusedWords:         t.UnusedWords,
		UtilPct:             t.UtilPct(),
		WastedBytes:         t.WastedBytes(),
		Invalidations:       t.Invalidations,
		InvWordsLost:        t.InvWordsLost,
		Upgrades:            t.Upgrades,
		ProbeMsgs:           t.ProbeMsgs,
		RecallInvalidations: t.RecallInvalidations,
		Patterns:            t.PatternCounts(),
	}
}

// Add accumulates another summary into s (cross-workload rollups).
func (s *Summary) Add(o Summary) {
	s.Regions += o.Regions
	s.FetchedWords += o.FetchedWords
	s.UsedWords += o.UsedWords
	s.UnusedWords += o.UnusedWords
	s.Invalidations += o.Invalidations
	s.InvWordsLost += o.InvWordsLost
	s.Upgrades += o.Upgrades
	s.ProbeMsgs += o.ProbeMsgs
	s.RecallInvalidations += o.RecallInvalidations
	for i := range s.Patterns {
		s.Patterns[i] += o.Patterns[i]
	}
	if s.FetchedWords == 0 {
		s.UtilPct = 100
	} else {
		s.UtilPct = 100 * float64(s.UsedWords) / float64(s.FetchedWords)
	}
	s.WastedBytes = s.UnusedWords * mem.WordBytes
}

// RegionInfo is one region's attribution snapshot.
type RegionInfo struct {
	Region  mem.RegionID
	Pattern Pattern
	Sharers int // cores that touched the region

	FetchedWords, UsedWords, UnusedWords uint64
	Fills                                uint64
	Invalidations, InvWordsLost          uint64
	Upgrades, ProbeMsgs                  uint64

	// Offender is the core whose requests invalidated others most
	// often (-1 when the region saw no core-attributed invalidation).
	Offender int

	// Score ranks offenders: bytes the region wasted (fetched-unused)
	// plus bytes churned by invalidations.
	Score uint64
}

func info(r *regionState, cells []coreCell) RegionInfo {
	sharers := 0
	offender, best := -1, uint32(0)
	for c, cell := range cells {
		if cell.read|cell.write != 0 {
			sharers++
		}
		if cell.invs > best {
			offender, best = c, cell.invs
		}
	}
	return RegionInfo{
		Region: r.id, Pattern: r.pattern, Sharers: sharers,
		FetchedWords: r.fetched, UsedWords: r.used, UnusedWords: r.unused,
		Fills:         r.fills,
		Invalidations: r.invals, InvWordsLost: r.invWords,
		Upgrades: r.upgrades, ProbeMsgs: r.probes,
		Offender: offender,
		Score:    (r.unused + r.invWords) * mem.WordBytes,
	}
}

// TopOffenders returns the n regions responsible for the most wasted
// and invalidation-churned bytes, worst first. Ordering is
// deterministic: score, then invalidations, then region id.
func (t *Tracker) TopOffenders(n int) []RegionInfo {
	t.flushDirty()
	out := make([]RegionInfo, t.n)
	for s := range out {
		out[s] = info(t.region(int32(s)))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Invalidations != b.Invalidations {
			return a.Invalidations > b.Invalidations
		}
		return a.Region < b.Region
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Reconcile checks the accounting invariant — every fetched word was
// classified used or unused exactly once — globally and per region.
// It holds after a complete run (core.System.Run flushes residual
// blocks); mid-run, fills that haven't died yet make fetched exceed
// used+unused and Reconcile reports it.
func (t *Tracker) Reconcile() error {
	if t.FetchedWords != t.UsedWords+t.UnusedWords {
		return fmt.Errorf("attrib: fetched %d words != used %d + unused %d",
			t.FetchedWords, t.UsedWords, t.UnusedWords)
	}
	var fetched, used, unused, invals uint64
	for s := int32(0); s < t.n; s++ {
		r, _ := t.region(s)
		if r.fetched != r.used+r.unused {
			return fmt.Errorf("attrib: region %d: fetched %d words != used %d + unused %d",
				r.id, r.fetched, r.used, r.unused)
		}
		fetched += r.fetched
		used += r.used
		unused += r.unused
		invals += r.invals
	}
	if fetched != t.FetchedWords || used != t.UsedWords || unused != t.UnusedWords {
		return fmt.Errorf("attrib: per-region sums (%d/%d/%d) disagree with totals (%d/%d/%d)",
			fetched, used, unused, t.FetchedWords, t.UsedWords, t.UnusedWords)
	}
	if invals != t.Invalidations {
		return fmt.Errorf("attrib: per-region invalidations %d != total %d", invals, t.Invalidations)
	}
	return nil
}
