package attrib

import (
	"reflect"
	"testing"

	"protozoa/internal/mem"
)

// TestTrackedRegionHooksDoNotAllocate pins the hot path: once a region
// has state, no hook call on it allocates — including the calls that
// mark it dirty again after a snapshot flushed the dirty list.
func TestTrackedRegionHooksDoNotAllocate(t *testing.T) {
	const cores, regions = 16, 3 * chunkRegions / 2
	tr := New(cores)
	for r := mem.RegionID(0); r < regions; r++ {
		tr.Access(int(r)%cores, r, 0, false)
	}
	tr.PatternCounts() // empty the dirty list so the calls below re-mark regions
	var i int
	next := func() (int, mem.RegionID, uint8) {
		i++
		return i % cores, mem.RegionID(i*7) % regions, uint8(i % mem.MaxRegionWords)
	}
	hooks := map[string]func(){
		"Access": func() { c, r, w := next(); tr.Access(c, r, w, i%3 == 0) },
		"Fill":   func() { c, r, _ := next(); tr.Fill(c, r, 8) },
		"Death":  func() { c, r, _ := next(); tr.Death(c, r, 3, 8) },
		"Invalidation": func() {
			c, r, _ := next()
			tr.Invalidation(r, (c+1)%cores, c, 4)
			tr.Invalidation(r, -1, c, 2)
		},
		"Upgrade": func() { c, r, _ := next(); tr.Upgrade(c, r) },
		"Fanout":  func() { _, r, _ := next(); tr.Fanout(r, 3) },
	}
	for name, hook := range hooks {
		if n := testing.AllocsPerRun(1000, hook); n != 0 {
			t.Errorf("%s on a tracked region: %v allocs per call, want 0", name, n)
		}
	}
	if got := tr.RegionCount(); got != regions {
		t.Fatalf("hooks on tracked regions created state: %d regions, want %d", got, regions)
	}
}

// TestRegionGrowthAllocsPerChunk pins how storage grows: a chunk of
// chunkRegions regions costs two allocations (its states and its cells),
// and the region index and the dirty list grow by amortized doubling. So
// 10k new regions cost a handful of allocations per chunk — under five
// at 16 cores, about half of them the Go map's own growth — never one or
// more per region.
func TestRegionGrowthAllocsPerChunk(t *testing.T) {
	const regions = 10000
	chunks := (regions + chunkMask) / chunkRegions
	allocs := testing.AllocsPerRun(5, func() {
		tr := New(16)
		for r := mem.RegionID(0); r < regions; r++ {
			tr.Access(int(r)%16, r*3, uint8(r%mem.MaxRegionWords), r%2 == 0)
		}
	})
	if limit := float64(6 * chunks); allocs > limit {
		t.Fatalf("%d new regions (%d chunks) took %v allocations, want at most %v",
			regions, chunks, allocs, limit)
	}
	t.Logf("%d new regions, %d chunks: %v allocations", regions, chunks, allocs)
}

// TestRegionStorageHoldsNoPointers keeps the per-region storage out of
// the garbage collector's mark work: a pointer, slice, map, string,
// interface, func or channel field anywhere in regionState or coreCell
// would make every chunk scannable again.
func TestRegionStorageHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %v: region storage must hold no pointers", path, typ.Kind())
		}
	}
	walk("regionState", reflect.TypeOf(regionState{}))
	walk("coreCell", reflect.TypeOf(coreCell{}))
	walk("lookup", reflect.TypeOf(lookup{}))
	if k := reflect.TypeOf(Tracker{}.index).Key().Kind(); k != reflect.Uint64 {
		t.Errorf("region index key is a %v, want a scalar region id", k)
	}
	if k := reflect.TypeOf(Tracker{}.index).Elem().Kind(); k != reflect.Int32 {
		t.Errorf("region index value is a %v, want an int32 slot", k)
	}
	if k := reflect.TypeOf(Tracker{}.dirtyList).Elem().Kind(); k != reflect.Int32 {
		t.Errorf("dirty list holds %v, want int32 slots", k)
	}
}
