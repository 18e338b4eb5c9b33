package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	khop "repro"
	"repro/internal/codec"
	"repro/internal/experiment"
	"repro/internal/metrics"
)

// mainDocComment extracts the package doc comment from main.go.
func mainDocComment(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	end := strings.Index(string(src), "package main")
	if end < 0 {
		t.Fatal("main.go has no package clause")
	}
	return string(src[:end])
}

// TestDocCommentMatchesRegistry enforces the registry as the single
// source of truth: the hand-written usage block in main.go's doc
// comment must list exactly the registry's workloads with their
// registry descriptions.
func TestDocCommentMatchesRegistry(t *testing.T) {
	doc := mainDocComment(t)
	for _, w := range experiment.Registry() {
		usage := "khopsim -fig " + w.Name + " "
		if !strings.Contains(doc, usage) {
			t.Errorf("doc comment missing usage line for workload %q (%q)", w.Name, usage)
		}
		if !strings.Contains(doc, w.Description) {
			t.Errorf("doc comment missing description of %q: %q", w.Name, w.Description)
		}
	}
	// And nothing stale: every documented -fig name must resolve.
	for _, line := range strings.Split(doc, "\n") {
		_, after, found := strings.Cut(line, "khopsim -fig ")
		if !found {
			continue
		}
		name := strings.Fields(after)[0]
		if name == "all" {
			continue
		}
		if experiment.WorkloadByName(name) == nil {
			t.Errorf("doc comment lists unknown figure %q", name)
		}
	}
}

// goldenConfig reproduces the RunConfig the CLI builds for
// `-seed 1 -runs <maxRuns>` (minruns clamps down to maxRuns).
func goldenConfig(maxRuns int) experiment.RunConfig {
	stop := metrics.PaperStopRule()
	stop.MaxRuns = maxRuns
	if stop.MinRuns > maxRuns {
		stop.MinRuns = maxRuns
	}
	return experiment.RunConfig{Seed: 1, Stop: stop, OverheadN: 100, OverheadD: 6, OverheadRuns: 20}
}

// TestGoldenFigures is the local mirror of CI's golden-figure gate:
// regenerate the committed documents (testdata/golden/) and fail on any
// byte of drift, for both one worker and eight. Regenerate the files
// with the commands in testdata/golden/README.md when a change to the
// figures is intentional.
func TestGoldenFigures(t *testing.T) {
	cases := []struct {
		file     string
		workload string
		maxRuns  int
	}{
		{"fig5.json", "5", 5},
		{"churn.json", "churn", 100},
		{"broadcast.json", "broadcast", 100},
		{"routing.json", "routing", 100},
		{"fig6.json", "6", 5},
		{"fig7.json", "7", 5},
		{"ablation.json", "ablation", 5},
		{"comparison.json", "comparison", 5},
		{"energy.json", "energy", 5},
		{"maintenance.json", "maintenance", 100},
		{"stability.json", "stability", 5},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []int{1, 8} {
				cfg := goldenConfig(tc.maxRuns)
				cfg.Parallel = parallel
				doc, err := experiment.RunWorkloads(context.Background(), []string{tc.workload}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := doc.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("parallel=%d: output drifted from testdata/golden/%s (len %d vs %d); regenerate per testdata/golden/README.md if intentional",
						parallel, tc.file, buf.Len(), len(want))
				}
			}
		})
	}
}

// TestWriteSnapshot drives the -snapshot path: the emitted file must be
// a decodable, verified deployment that restores into a live engine —
// the reuse contract khopd depends on.
func TestWriteSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dep.khop")
	if err := writeSnapshot(context.Background(), path, 80, 6, 2, "AC-LMST", 1, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := codec.DecodeBytes(raw) // checksum + VerifyResult
	if err != nil {
		t.Fatal(err)
	}
	if snap.K != 2 || snap.Algorithm != khop.ACLMST || snap.Graph.N() != 80 {
		t.Fatalf("snapshot header drifted: k=%d algo=%v n=%d", snap.K, snap.Algorithm, snap.Graph.N())
	}
	eng, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.Result().Heads); got == 0 {
		t.Fatal("restored engine has no heads")
	}
	if err := writeSnapshot(context.Background(), path, 80, 6, 2, "Steiner", 1, 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
