package selfprof

import (
	"fmt"
	"io"
	"sync"
)

// Collector aggregates self-profile reports across many runs — the
// sweep's -self-prof surface, fed from runner worker goroutines, so it
// is the one synchronized type in the package.
type Collector struct {
	mu   sync.Mutex
	runs int
	agg  Report
}

// Add folds one run's report into the totals. Cached cells never call
// Add (they did not simulate), so the totals cover simulated work only.
func (c *Collector) Add(r *Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	c.agg.TotalNs += r.TotalNs
	c.agg.TotalEvents += r.TotalEvents
	c.agg.Queue.add(r.Queue)
}

// Runs reports how many reports have been folded in.
func (c *Collector) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Totals returns a copy of the aggregated report.
func (c *Collector) Totals() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg
}

// WriteSummary renders the grid-level rollup.
func (c *Collector) WriteSummary(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "self-profile: %d simulated cells, %d events in %s total wall\n",
		c.runs, c.agg.TotalEvents, ns(c.agg.TotalNs))
	c.agg.Queue.writeLine(w)
}
