package runner

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"protozoa/internal/obs"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/stats"
)

// A cell's cached payload is binary:
//
//	uvarint len(envelope) | envelope | marker | dump
//
// The envelope is the JSON cachedResult (a few KB). The marker byte is
// 0 when the cell carried no attribution tracker — the payload then ends
// — and 1 when the rest of the payload is the tracker's attrib.Dump in
// its binary encoding (Dump.AppendBinary), which is the bulk of a
// payload. The dump section is validated twice on the way back:
// UnmarshalBinary rejects malformed bytes, FromDump rejects a dump no
// tracker could have produced.

// cachedResult is the envelope of one cell's payload: everything but
// the attribution dump. Every field is integral (stats counters,
// latency histogram buckets), so the JSON round trip reproduces the
// simulated values exactly — which is what lets a warm run render
// byte-identical CSV/report output. A field added to any of these types
// changes the key's payload fingerprint; a change to the payload layout
// itself must bump resultcache.SchemaVersion, since nothing in the
// payload records its format.
type cachedResult struct {
	Events  uint64
	Stats   *stats.Stats
	Latency *obs.LatencyBreakdown `json:",omitempty"`
	Extra   []byte                `json:",omitempty"`
}

// encodeResult serializes a successful result for the cache.
func encodeResult(r *Result) ([]byte, error) {
	env, err := json.Marshal(cachedResult{
		Events:  r.Events,
		Stats:   r.Stats,
		Latency: r.Latency,
		Extra:   r.Extra,
	})
	if err != nil {
		return nil, err
	}
	b := binary.AppendUvarint(nil, uint64(len(env)))
	b = append(b, env...)
	if r.Attrib == nil {
		return append(b, 0), nil
	}
	return r.Attrib.Dump().AppendBinary(append(b, 1))
}

// decodeResult reconstructs a result for cell c from a cached payload.
// A malformed payload, or one missing an observation the cell requires,
// is an error — the caller treats it as a miss and re-simulates.
func decodeResult(i int, c Cell, payload []byte) (Result, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n >= uint64(len(payload)-k) {
		return Result{}, fmt.Errorf("cached result has a bad envelope length")
	}
	env, rest := payload[k:k+int(n)], payload[k+int(n):]
	var cr cachedResult
	if err := json.Unmarshal(env, &cr); err != nil {
		return Result{}, fmt.Errorf("decode cached result: %w", err)
	}
	if cr.Stats == nil {
		return Result{}, fmt.Errorf("cached result has no stats")
	}
	var tr *attrib.Tracker
	switch rest[0] {
	case 0:
		if len(rest) > 1 {
			return Result{}, fmt.Errorf("cached result has %d trailing bytes", len(rest)-1)
		}
	case 1:
		var d attrib.Dump
		err := d.UnmarshalBinary(rest[1:])
		if err == nil {
			tr, err = attrib.FromDump(&d)
		}
		if err != nil {
			return Result{}, err
		}
	default:
		return Result{}, fmt.Errorf("cached result has a bad attribution marker %#x", rest[0])
	}
	r := Result{
		Index:  i,
		Cell:   c,
		Stats:  cr.Stats,
		Events: cr.Events,
		Extra:  cr.Extra,
		Cached: true,
	}
	if c.NeedAttrib {
		if tr == nil {
			return Result{}, fmt.Errorf("cached result lacks attribution")
		}
		r.Attrib = tr
	}
	if c.NeedLatency {
		if cr.Latency == nil {
			return Result{}, fmt.Errorf("cached result lacks latency breakdown")
		}
		r.Latency = cr.Latency
	}
	return r, nil
}
