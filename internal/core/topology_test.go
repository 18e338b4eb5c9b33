package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cds"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/udg"
)

// TestPipelineOnAdversarialTopologies runs the complete pipeline on the
// structured deployments (lattice, cycle, clumped hotspots) where
// ID-based algorithms face maximal tie structure or extreme density
// skew, asserting every structural guarantee still holds.
func TestPipelineOnAdversarialTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scenes := []struct {
		name string
		pos  []geom.Point
		r    float64
	}{
		{"grid-8x8", udg.GridPlacement(8, 8, 10), 10.5},
		{"grid-diagonals", udg.GridPlacement(6, 6, 10), 15}, // 8-neighborhood
		{"ring-30", udg.RingPlacement(30, geom.Point{X: 50, Y: 50}, 40), udg.RingChord(30, 40) * 1.01},
		{"clustered", clusteredConnected(t, rng), 30},
	}
	for _, sc := range scenes {
		g := udg.Build(sc.pos, sc.r)
		if !g.Connected() {
			t.Fatalf("%s: scene disconnected; adjust parameters", sc.name)
		}
		for _, k := range []int{1, 2, 3} {
			for _, algo := range gateway.Algorithms {
				out, err := BuildCtx(context.Background(), g, Options{K: k, Algorithm: algo})
				if err != nil {
					t.Fatalf("%s k=%d %v: %v", sc.name, k, algo, err)
				}
				if err := cds.CheckClustering(g, out.Clustering); err != nil {
					t.Fatalf("%s k=%d %v: %v", sc.name, k, algo, err)
				}
				if err := cds.CheckIndependentSet(g, out.Clustering.Heads, k); err != nil {
					t.Fatalf("%s k=%d %v: %v", sc.name, k, algo, err)
				}
				if err := cds.CheckKHopCDS(g, out.Gateway.CDS, k); err != nil {
					t.Fatalf("%s k=%d %v: %v", sc.name, k, algo, err)
				}
			}
		}
	}
}

// clusteredConnected resamples hotspot deployments until one is
// connected at range 30 (hotspot centers can land arbitrarily far apart,
// so a fixed sample may be split).
func clusteredConnected(t *testing.T, rng *rand.Rand) []geom.Point {
	t.Helper()
	for try := 0; try < 100; try++ {
		pos := udg.ClusteredPlacement(5, 16, 6, udg.DefaultField(), rng)
		if udg.Build(pos, 30).Connected() {
			return pos
		}
	}
	t.Fatal("could not sample a connected clustered deployment")
	return nil
}

// TestRingClusterCount pins exact behavior on the cycle: lowest-ID k-hop
// clustering on a cycle of n nodes produces ⌈n/(2k+1)⌉-ish clusters; we
// assert the exact greedy outcome for one configuration.
func TestRingClusterCount(t *testing.T) {
	pos := udg.RingPlacement(12, geom.Point{X: 50, Y: 50}, 30)
	g := udg.Build(pos, udg.RingChord(12, 30)*1.01)
	out, err := BuildCtx(context.Background(), g, Options{K: 1, Algorithm: gateway.ACLMST})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0-1-…-11-0 with k=1: 0 wins {11,0,1}; then the remaining
	// path 2..10 clusters as 2{3}, wait — iterative: 2 wins {2,3} (1,11
	// taken), 4 wins, 6, 8, then 10 (9 taken by 8? 8 wins {7,8,9}) —
	// heads 0,2,4,6,8,10.
	if got := len(out.Clustering.Heads); got != 6 {
		t.Fatalf("cycle-12 k=1 heads=%v", out.Clustering.Heads)
	}
}
