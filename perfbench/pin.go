package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// pinDigests prints, as digests.json expects, every cell's Stats digest
// on the canonical seed for every workload.
func pinDigests(stdout, stderr io.Writer, outDir string) int {
	all := map[string]map[string]string{}
	for _, w := range allWorkloads {
		g := &gate{seen: map[string]string{}}
		if w.grid {
			gr := newGrid(canonicalSeed, filepath.Join(outDir, "grid-cache"))
			gr.check(g, gr.sample(0, nil, nil))
		} else {
			runCellSample(w.cells(canonicalSeed), g, cellMode{})
		}
		if len(g.errs) > 0 {
			fmt.Fprintln(stderr, "perfbench: -pin:", w.name, g.errs)
			return 1
		}
		all[w.name] = g.seen
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}
