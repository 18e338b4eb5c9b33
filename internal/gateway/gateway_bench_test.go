package gateway

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/udg"
)

// benchClustered is one production-scale grid-indexed deployment (no
// connectivity filter) clustered at k=2, with its CSR snapshot.
func benchClustered(b *testing.B, n int) (*graph.FlatGraph, *cluster.Clustering) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return graph.Flatten(net.G), cluster.Run(net.G, cluster.Options{K: 2})
}

// BenchmarkGMSTHeadDists times G-MST's BFS-dominated pass — the
// head-to-head distance rows feeding the virtual graph, as unbounded
// 64-head multi-source sweeps over locality-ordered blocks — serially.
// 256 of the heads keep it under a second; they are a
// locality-contiguous run (an ID-prefix subset would thin the source
// density and starve the blocks of frontier sharing the full pass
// gets), so per-head cost matches the full pass.
func BenchmarkGMSTHeadDists(b *testing.B) {
	fg, c := benchClustered(b, 50000)
	heads := make([]int, 256)
	for i, pi := range fg.LocalityOrder(c.Heads)[:256] {
		heads[i] = c.Heads[pi]
	}
	ctx := context.Background()
	b.Run("N=50k/batched", func(b *testing.B) {
		s := graph.NewScratch()
		for i := 0; i < b.N; i++ {
			if _, err := headDistRows(ctx, fg, heads, s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
