package attrib_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"protozoa/internal/core"
	"protozoa/internal/harness"
	"protozoa/internal/obs/attrib"
	"protozoa/internal/runner"
	"protozoa/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// trackedRun simulates one workload on the 16-core machine at scale 1
// with attribution enabled and returns the finished tracker.
func trackedRun(tb testing.TB, workload string, p core.Protocol) *attrib.Tracker {
	tb.Helper()
	spec, err := workloads.Get(workload)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(p)
	if err := runner.ConfigureCores(&cfg, 16); err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, spec.Streams(16, 1))
	if err != nil {
		tb.Fatal(err)
	}
	tr := sys.EnableAttribution()
	if err := sys.Run(); err != nil {
		tb.Fatalf("%v on %s: %v", p, workload, err)
	}
	return tr
}

// TestAttributionGolden pins what the tracker reports after real runs:
// the binary dump's SHA-256, the summary, the pattern counts, the top
// ten offenders and the rendered report, for three sharing-heavy
// workloads under every protocol. Any change to how the tracker stores
// or classifies regions that moves a number fails here; regenerate
// deliberately with `go test -run Golden -update`.
func TestAttributionGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range []string{"barnes", "canneal", "linear-regression"} {
		for _, p := range core.AllProtocols {
			tr := trackedRun(t, w, p)
			enc, err := tr.Dump().AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "== %s / %v\n", w, p)
			fmt.Fprintf(&buf, "dump sha256 %x (%d bytes)\n", sha256.Sum256(enc), len(enc))
			fmt.Fprintf(&buf, "summary %+v\n", tr.Summarize())
			fmt.Fprintf(&buf, "patterns %v\n", tr.PatternCounts())
			for _, r := range tr.TopOffenders(10) {
				fmt.Fprintf(&buf, "offender %+v\n", r)
			}
			buf.WriteString(harness.RenderAttribution(tr, 10))
		}
	}

	golden := filepath.Join("testdata", "attribution.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("attribution output drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}
