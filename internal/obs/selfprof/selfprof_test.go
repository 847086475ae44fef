package selfprof

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestReport(t *testing.T) {
	p := New()
	p.TotalEvents = 80
	p.TotalNs = 1000
	p.Tiles[0].Queue.RingPushes = 50
	p.Tiles[0].Queue.FarPushes = 10
	p.Tiles[0].Queue.RingHigh = 9
	p.Tiles[0].MicroHits = 20

	r := p.Report()
	if r.Queue.RingPushes != 50 || r.Queue.FarPushes != 10 || r.Queue.MicroHits != 20 {
		t.Errorf("queue totals = %+v", r.Queue)
	}
	if r.Queue.RingHigh != 9 || r.TotalEvents != 80 {
		t.Errorf("report = %+v", r)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if round != *r {
		t.Errorf("round-tripped report %+v, want %+v", round, *r)
	}

	buf.Reset()
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"self-profile: 80 events", "zero-delay 20", "high ring/far/micro 9/0/0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorConcurrentAdd(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(&Report{
					TotalEvents: 10,
					Queue:       QueueTotals{RingPushes: 3, MicroHits: 1, RingHigh: j},
				})
			}
		}()
	}
	wg.Wait()
	if c.Runs() != 800 {
		t.Fatalf("runs = %d, want 800", c.Runs())
	}
	agg := c.Totals()
	if agg.TotalEvents != 8000 || agg.Queue.RingPushes != 2400 || agg.Queue.MicroHits != 800 {
		t.Errorf("totals wrong: %+v", agg)
	}
	if agg.Queue.RingHigh != 99 {
		t.Errorf("RingHigh = %d, want max 99", agg.Queue.RingHigh)
	}
	var buf bytes.Buffer
	c.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "800 simulated cells") {
		t.Errorf("summary: %s", buf.String())
	}
}
