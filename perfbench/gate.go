package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"protozoa/internal/stats"
)

// digests.json pins, for the canonical seed, the digest of every cell's
// simulated Stats on every workload. Regenerate it with -pin only when
// a change is meant to alter simulated results.
//
//go:embed digests.json
var pinnedJSON []byte

// digest is the hex SHA-256 of a cell's Stats in their JSON form, which
// covers every simulated counter.
func digest(st *stats.Stats) string {
	data, err := json.Marshal(st)
	if err != nil {
		// Stats holds only integers and slices of them.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// gate is the correctness check every sample passes through. On the
// canonical seed each cell must match its pinned digest; on any other
// seed every repeat of a cell must match the first one seen in the run.
type gate struct {
	pinned map[string]string // label -> digest; nil off the canonical seed
	seen   map[string]string
	errs   []string
}

func newGate(workload string, seed uint64) (*gate, error) {
	g := &gate{seen: map[string]string{}}
	if seed != canonicalSeed {
		return g, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	g.pinned = all[workload]
	if g.pinned == nil {
		g.pinned = map[string]string{}
	}
	return g, nil
}

// check files one cell's Stats digest and reports whether it passes.
func (g *gate) check(label, d string) bool {
	want, ok := g.seen[label]
	source := "an earlier repeat"
	if g.pinned != nil {
		want, ok = g.pinned[label]
		source = "the pinned canonical digest"
		if !ok {
			return g.fail("%s: no pinned digest", label)
		}
	}
	if !ok {
		g.seen[label] = d
		return true
	}
	if d != want {
		return g.fail("%s: stats digest %.12s differs from %s %.12s", label, d, source, want)
	}
	return true
}

// fail records a failed check; it always returns false.
func (g *gate) fail(format string, args ...any) bool {
	g.errs = append(g.errs, fmt.Sprintf(format, args...))
	return false
}
