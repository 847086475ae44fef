package flight

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"protozoa/internal/mem"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz corpus")

// corpusRecords is the two-record log every valid corpus entry holds.
var corpusRecords = []Record{
	{Cycle: 1, Seq: 0, Tile: 2, Kind: KindMsgSend, Sub: 1, Src: 0, Dst: 2,
		Req: -1, Region: 77, Txn: 5, Flags: FlagStillOwner,
		R: mem.Range{Start: 2, End: 6}, Valid: 0x7c, Dirty: 0x40},
	{Cycle: 3, Seq: 1, Tile: 2, Kind: KindDirState, Sub: SubNone,
		Req: 4, Region: 77, From: DirSS, To: DirO},
}

type logCase struct {
	log string
	err string // "" = must parse to corpusRecords
}

// readLogCorpus is the committed seed corpus for FuzzReadLog: a valid
// log, headers whose record count is negative, huge or wrong, logs
// truncated at and inside a record, and malformed lines.
func readLogCorpus(t testing.TB) map[string]logCase {
	var buf bytes.Buffer
	if err := WriteLog(&buf, Meta{Protocol: "mw", Cores: 16, RegionBytes: 64,
		Msgs: []string{"GETS", "GETX"}}, corpusRecords); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	head, body, _ := strings.Cut(valid, "\n")
	lines := strings.SplitAfter(body, "\n")
	recount := func(n string) string {
		return strings.Replace(head, `"records":2`, `"records":`+n, 1) + "\n" + body
	}
	const bare = `{"format":"protozoa-flight","version":1,"records":`
	return map[string]logCase{
		"valid":               {valid, ""},
		"negative-count":      {bare + "-1}\n", "negative record count"},
		"huge-count":          {bare + "4000000000000}\n", "header says 4000000000000 records, log holds 0"},
		"count-too-large":     {recount("3"), "header says 3 records, log holds 2"},
		"count-too-small":     {recount("1"), "header says 1 records, log holds 2"},
		"truncated-at-record": {head + "\n" + lines[0], "header says 2 records, log holds 1"},
		"truncated-in-record": {valid[:len(valid)-8], "line 3"},
		"header-only":         {head + "\n", "header says 2 records, log holds 0"},
		"empty":               {"", "empty log"},
		"bad-header":          {"{\n", "bad header"},
		"foreign-format":      {`{"format":"nope"}` + "\n", "not a flight log"},
		"short-record":        {recount("1") + "[1,2]\n", "2 fields"},
	}
}

const readLogCorpusDir = "testdata/fuzz/FuzzReadLog"

// TestReadLogCorpus checks the committed corpus against ReadLog: each
// file holds what readLogCorpus generates today (regenerate with
// `go test -run ReadLogCorpus -update`), "valid" parses to its records,
// and every other entry is rejected with its error.
func TestReadLogCorpus(t *testing.T) {
	for name, c := range readLogCorpus(t) {
		file := filepath.Join(readLogCorpusDir, name)
		text := "go test fuzz v1\n[]byte(" + strconv.Quote(c.log) + ")\n"
		if *updateCorpus {
			if err := os.MkdirAll(readLogCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != text {
			t.Fatalf("%s is stale or missing (run with -update to regenerate): %v", file, err)
		}
		_, recs, err := ReadLog(strings.NewReader(c.log))
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want it to mention %q", name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(recs, corpusRecords) {
			t.Errorf("%s: records %+v, want %+v", name, recs, corpusRecords)
		}
	}
}

// readAllocBound caps what reading an n-byte log may allocate: the
// scanner's line buffer plus a linear term for the records and the
// JSON decoding of each line. A header count that sized an allocation
// would blow straight through it.
func readAllocBound(n int) uint64 { return 512*uint64(n) + 256<<10 }

// FuzzReadLog feeds ReadLog arbitrary bytes, starting from the
// committed corpus in testdata/fuzz. It must never panic, never
// allocate beyond readAllocBound, and whatever it accepts must hold
// exactly the record count its header declares.
func FuzzReadLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		meta, recs, err := ReadLog(bytes.NewReader(log))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, readAllocBound(len(log)); got > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(log), got, bound)
		}
		if err == nil && len(recs) != meta.Records {
			t.Fatalf("accepted a log of %d records whose header says %d", len(recs), meta.Records)
		}
	})
}
