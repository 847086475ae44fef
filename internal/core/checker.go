package core

import (
	"fmt"
	"math/bits"
	"slices"

	"protozoa/internal/cache"
	"protozoa/internal/mem"
)

// Checker is the random-tester correctness oracle (Section 3.6). It
// observes a System and verifies, at every directory quiescent point:
//
//   - word-granularity SWMR: a word cached with write permission (M or
//     E) anywhere has exactly one holder system-wide;
//   - the protocol's own granularity: region-level SWMR for MESI and
//     Protozoa-SW, at most one writing core per region for
//     Protozoa-SW+MR;
//   - value integrity: every cached word equals the golden value (the
//     last value written in coherence order), catching lost
//     writebacks, stale copies, and mis-patched L2 data;
//   - load integrity: every completed load observed the golden value.
//
// Every invariant is a property of one region, so a quiescent point
// checks only the ending region and those marked dirty since the last
// one: by stores and by the L1 handlers that install or upgrade data.
// Evictions, invalidations and downgrades only remove holders, so this
// equals a full scan. Every sweepInterval quiescent points all
// resident regions are checked anyway, as a backstop.
//
// Violations are recorded (up to MaxViolations) rather than panicking,
// so tests and the protozoa-verify tool can report them.
type Checker struct {
	sys    *System
	golden map[mem.Addr]uint64

	dirty []mem.RegionID // marked since the last quiescent point; unsorted, may repeat

	// Checks counts quiescent points checked.
	Checks int
	// Loads counts load values validated.
	Loads int

	violations []string

	// transcript is the flight recorder's tail captured at the first
	// violation (empty when the recorder is disabled): the record of
	// what the machine was doing when the invariant broke, before
	// later traffic rotates it out of the bounded rings.
	transcript string
}

const (
	// MaxViolations bounds the recorded diagnostics.
	MaxViolations = 32
	// sweepInterval is the number of quiescent points between checks
	// of every resident region.
	sweepInterval = 1024
)

// NewChecker attaches a fresh checker to the system as its observer.
// The L1s mark dirty regions on it directly, so another Observer may
// wrap it.
func NewChecker(sys *System) *Checker {
	c := &Checker{sys: sys, golden: make(map[mem.Addr]uint64)}
	sys.SetObserver(c)
	sys.chk = c
	return c
}

// Violations returns the recorded diagnostics.
func (c *Checker) Violations() []string { return c.violations }

// CheckerSummary is the serializable outcome of a checked run — what
// protozoa-verify reports per cell, in a form the result cache can
// store and replay byte-identically.
type CheckerSummary struct {
	Loads      int
	Checks     int
	Violations []string `json:",omitempty"`
}

// Summary snapshots the checker's outcome.
func (c *Checker) Summary() CheckerSummary {
	return CheckerSummary{
		Loads:      c.Loads,
		Checks:     c.Checks,
		Violations: append([]string(nil), c.violations...),
	}
}

// Err summarizes the violations as an error, or nil if none occurred.
// When the flight recorder was enabled the error carries the transcript
// captured at the first violation, so a random-tester failure reads as
// a protocol trace instead of a bare invariant message.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	err := fmt.Errorf("checker: %d violation(s), first: %s", len(c.violations), c.violations[0])
	if c.transcript != "" {
		err = fmt.Errorf("%w\nflight transcript at first violation (last %d records):\n%s",
			err, violationTranscriptCap, c.transcript)
	}
	return err
}

// Transcript returns the flight-recorder tail captured at the first
// violation (empty when none occurred or the recorder was disabled).
func (c *Checker) Transcript() string { return c.transcript }

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.violations) == 0 {
		// Auto-dump on the first violation: snapshot the flight tail
		// now, while the records leading up to the break are still in
		// the rings.
		c.transcript = c.sys.flightTail(violationTranscriptCap)
	}
	if len(c.violations) < MaxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// OnStore implements Observer.
func (c *Checker) OnStore(_ int, addr mem.Addr, val uint64) {
	c.golden[addr] = val
	c.mark(c.sys.geom.Region(addr))
}

// OnLoad implements Observer.
func (c *Checker) OnLoad(core int, addr mem.Addr, val uint64) {
	c.Loads++
	if want := c.golden[addr]; val != want {
		c.fail("core %d loaded %#x from %#x, want golden %#x", core, val, addr, want)
	}
}

// OnTxnEnd implements Observer: check the ending region and every
// region dirtied since the last quiescent point, in ascending order.
func (c *Checker) OnTxnEnd(region mem.RegionID) {
	c.Checks++
	c.mark(region)
	if c.Checks%sweepInterval == 0 {
		c.sweep()
	}
	c.compact()
	for _, r := range c.dirty {
		c.checkRegion(r)
	}
	c.dirty = c.dirty[:0]
}

// mark records that a region's L1 state or golden value may have
// changed since the last quiescent point. Compacting a full set before
// growing it keeps the set proportional to the distinct regions marked.
func (c *Checker) mark(region mem.RegionID) {
	n := len(c.dirty)
	if n > 0 && c.dirty[n-1] == region {
		return
	}
	if n == cap(c.dirty) && c.compact() > n/2 {
		c.dirty = slices.Grow(c.dirty, n)
	}
	c.dirty = append(c.dirty, region)
}

// compact sorts the dirty set and drops repeats, returning its size.
func (c *Checker) compact() int {
	slices.Sort(c.dirty)
	c.dirty = slices.Compact(c.dirty)
	return len(c.dirty)
}

// sweep marks every resident region: the periodic full check that
// backs up the dirty marking.
func (c *Checker) sweep() {
	for _, l1 := range c.sys.l1s {
		l1.cache.Blocks(func(b *cache.Block) { c.mark(b.Region) })
	}
}

// checkRegion verifies every invariant over one region's resident
// blocks. Holders and writers are core bitmasks (Config.Cores <= 32),
// so a clean check allocates nothing.
func (c *Checker) checkRegion(region mem.RegionID) {
	g := c.sys.geom
	words := g.WordsPerRegion()
	var golden [mem.MaxRegionWords]uint64
	for w := 0; w < words; w++ {
		golden[w] = c.golden[g.WordAddr(region, uint8(w))]
	}
	var wordHolders, wordWriters [mem.MaxRegionWords]coreSet
	for _, l1 := range c.sys.l1s {
		bit := coreSet(1) << l1.id
		for _, b := range l1.cache.BlocksInRegion(region) {
			writer := b.State == cache.Modified || b.State == cache.Exclusive
			for w := b.R.Start; w <= b.R.End; w++ {
				wordHolders[w] |= bit
				if writer {
					wordWriters[w] |= bit
				}
				if val := b.Word(w); val != golden[w] {
					c.fail("core %d caches %#x=%#x in %v, golden %#x",
						l1.id, g.WordAddr(region, w), val, b.State, golden[w])
				}
			}
		}
	}

	// Word-granularity SWMR holds for every protocol (region SWMR
	// implies it): a written word has exactly one holder.
	var regionHolders, regionWriters coreSet
	for w, writers := range wordWriters[:words] {
		regionHolders |= wordHolders[w]
		regionWriters |= writers
		if writers.count() > 1 {
			c.fail("word %d of region %d writable at cores %v", w, region, writers)
		}
		if writers != 0 && wordHolders[w].count() > 1 {
			c.fail("word %d of region %d written at core %d but cached at %v",
				w, region, bits.TrailingZeros32(uint32(writers)), wordHolders[w])
		}
	}

	switch c.sys.Protocol() {
	case MESI, ProtozoaSW:
		// Region-granularity SWMR: a region with any written word has
		// exactly one L1 caching anything of it.
		if regionWriters != 0 && regionHolders.count() > 1 {
			c.fail("%v: region %d has writer(s) %v and holders %v",
				c.sys.Protocol(), region, regionWriters, regionHolders)
		}
	case ProtozoaSWMR:
		// At most one writing core per region.
		if n := regionWriters.count(); n > 1 {
			c.fail("SW+MR: region %d has %d writers %v", region, n, regionWriters)
		}
	}
}

// coreSet is a bitmask of core IDs. It prints as the ascending ID list
// ("[0 3]") the violation messages use.
type coreSet uint32

func (s coreSet) count() int { return bits.OnesCount32(uint32(s)) }

func (s coreSet) String() string {
	ids := make([]int, 0, s.count())
	for m := uint32(s); m != 0; m &= m - 1 {
		ids = append(ids, bits.TrailingZeros32(m))
	}
	return fmt.Sprint(ids)
}
