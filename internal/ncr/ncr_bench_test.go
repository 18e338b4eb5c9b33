package ncr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/udg"
)

// benchNet is one production-scale grid-indexed deployment (no
// connectivity filter; the selection handles components) clustered at
// the given k.
func benchNet(b *testing.B, n, k int) (*graph.Graph, *graph.FlatGraph, *cluster.Clustering) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return net.G, graph.Flatten(net.G), cluster.Run(net.G, cluster.Options{K: k})
}

// BenchmarkNCSelect times the batched NC selection (64 heads per
// multi-source sweep) serially. Both cluster radii of the paper's
// evaluation are measured: the NC walk is bounded at 2k+1 hops, and a
// bounded batched sweep's win over per-head walks is capped by
// per-vertex ball overlap divided by distinct gain-levels — highest at
// k=1, shrinking toward parity as the radius (and with it the level
// count) grows. G-MST runs on this selection too.
func BenchmarkNCSelect(b *testing.B) {
	for _, k := range []int{1, 2} {
		g, fg, c := benchNet(b, 50000, k)
		ctx := context.Background()
		b.Run(fmt.Sprintf("N=50k/k=%d/batched", k), func(b *testing.B) {
			s := graph.NewScratch()
			for i := 0; i < b.N; i++ {
				if _, err := SelectPar(ctx, g, fg, c, RuleNC, s, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
