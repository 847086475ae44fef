package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"protozoa/internal/engine"
	"protozoa/internal/mem"
)

// On-disk flight-log format (.pzfl): one JSON object header line
// carrying the machine shape and the name tables, then one compact JSON
// array per record. Line-oriented so logs stream, diff, and grep; the
// header's vocabularies make the file self-describing, so
// protozoa-inspect needs no knowledge of the recording binary's enums.
//
// The header deliberately omits anything that varies from run to run
// (wall time, host): two recordings of the same run are byte-identical.

// FormatName / FormatVersion identify the file format.
const (
	FormatName    = "protozoa-flight"
	FormatVersion = 1
)

// Meta is the log header.
type Meta struct {
	Format      string   `json:"format"`
	Version     int      `json:"version"`
	Protocol    string   `json:"protocol"`
	Cores       int      `json:"cores"`
	RegionBytes int      `json:"region_bytes"`
	Records     int      `json:"records"`
	Dropped     uint64   `json:"dropped"`
	Kinds       []string `json:"kinds"`
	Msgs        []string `json:"msgs"`
	L1States    []string `json:"l1_states"`
	DirStates   []string `json:"dir_states"`
	Fields      []string `json:"fields"`
}

// recordFields documents the per-record array layout, in order.
var recordFields = []string{
	"cycle", "seq", "tile", "kind", "sub", "src", "dst", "req",
	"region", "txn", "from", "to", "flags", "r_start", "r_end",
	"valid", "dirty",
}

const numFields = 17

// Names returns the header's Sub vocabulary for rendering.
func (m *Meta) Names() *Names { return &Names{Msgs: m.Msgs} }

// WriteLog writes the header and records. meta's Records/Dropped/Kinds/
// Fields are filled in here; the caller supplies the machine shape and
// message vocabulary.
func WriteLog(w io.Writer, meta Meta, recs []Record) error {
	meta.Format = FormatName
	meta.Version = FormatVersion
	meta.Records = len(recs)
	meta.Kinds = KindNames()
	meta.L1States = L1StateNames()
	meta.DirStates = DirStateNames()
	meta.Fields = recordFields
	bw := bufio.NewWriter(w)
	head, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	bw.Write(head)
	bw.WriteByte('\n')
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(bw, "[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]\n",
			r.Cycle, r.Seq, r.Tile, r.Kind, r.Sub, r.Src, r.Dst, r.Req,
			r.Region, r.Txn, r.From, r.To, r.Flags, r.R.Start, r.R.End,
			r.Valid, r.Dirty)
	}
	return bw.Flush()
}

// ReadLog parses a flight log written by WriteLog. The header's record
// count is checked against the records actually read, so a truncated
// (or padded) log is an error; the count never sizes an allocation,
// since nothing but the records themselves can back it.
func ReadLog(r io.Reader) (Meta, []Record, error) {
	var meta Meta
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return meta, nil, err
		}
		return meta, nil, fmt.Errorf("flight: empty log")
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return meta, nil, fmt.Errorf("flight: bad header: %w", err)
	}
	if meta.Format != FormatName {
		return meta, nil, fmt.Errorf("flight: not a flight log (format %q)", meta.Format)
	}
	if meta.Version != FormatVersion {
		return meta, nil, fmt.Errorf("flight: unsupported version %d (want %d)", meta.Version, FormatVersion)
	}
	if meta.Records < 0 {
		return meta, nil, fmt.Errorf("flight: bad header: negative record count %d", meta.Records)
	}
	var recs []Record
	line := 1
	for sc.Scan() {
		line++
		var f [numFields]int64
		v := f[:0]
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return meta, nil, fmt.Errorf("flight: line %d: %w", line, err)
		}
		if len(v) != numFields {
			return meta, nil, fmt.Errorf("flight: line %d: %d fields (want %d)", line, len(v), numFields)
		}
		recs = append(recs, Record{
			Cycle: engine.Cycle(v[0]), Seq: uint64(v[1]), Tile: int16(v[2]),
			Kind: Kind(v[3]), Sub: uint8(v[4]),
			Src: int16(v[5]), Dst: int16(v[6]), Req: int16(v[7]),
			Region: uint64(v[8]), Txn: uint64(v[9]),
			From: uint8(v[10]), To: uint8(v[11]), Flags: uint8(v[12]),
			R:     mem.Range{Start: uint8(v[13]), End: uint8(v[14])},
			Valid: mem.Bitmap(v[15]), Dirty: mem.Bitmap(v[16]),
		})
	}
	if err := sc.Err(); err != nil {
		return meta, nil, err
	}
	if len(recs) != meta.Records {
		return meta, nil, fmt.Errorf("flight: header says %d records, log holds %d", meta.Records, len(recs))
	}
	return meta, recs, nil
}
