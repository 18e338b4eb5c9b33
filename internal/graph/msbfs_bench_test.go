package graph

import (
	"math/rand"
	"testing"
)

// benchSweepGraph is a fixed seeded instance shared by the sweep
// benchmarks: 20k vertices, average degree ~8, mostly connected.
func benchSweepGraph() (*Graph, *FlatGraph, []int) {
	rng := rand.New(rand.NewSource(99))
	g := msRandomGraph(rng, 20000, 8, true)
	return g, Flatten(g), rng.Perm(20000)[:64]
}

// BenchmarkMSBFS measures one 64-source batched sweep over the CSR
// snapshot — the primitive the per-head fan-outs of the pipeline batch
// onto. Compare against BenchmarkScalarBFSFanout, the 64 per-source
// walks it replaces.
func BenchmarkMSBFS(b *testing.B) {
	_, f, sources := benchSweepGraph()
	s := NewMSScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MSBFS(s, sources, -1, func(v, d int, mask uint64) bool { return true })
	}
}

// BenchmarkMSBFSBounded is the radius-bounded variant (maxHops=5), the
// shape the offer walks and NC selection actually run.
func BenchmarkMSBFSBounded(b *testing.B) {
	_, f, sources := benchSweepGraph()
	s := NewMSScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MSBFS(s, sources, 5, func(v, d int, mask uint64) bool { return true })
	}
}

// BenchmarkScalarBFSFanout is the scalar baseline: the same 64 sources
// walked one whole-graph BFS at a time on the adjacency-list graph.
func BenchmarkScalarBFSFanout(b *testing.B) {
	g, _, sources := benchSweepGraph()
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			g.EachWithin(s, src, g.N(), func(int, int) bool { return true })
		}
	}
}

// flatSink keeps the benchmarked snapshot alive so the call is not elided.
var flatSink *FlatGraph

// BenchmarkFlatten times one CSR snapshot of a 50k-vertex graph of mean
// degree 10: the per-build cost every stage's batched traversals share.
// The DFS locality rank is not part of it; the first ordering call pays
// for that.
func BenchmarkFlatten(b *testing.B) {
	g := msRandomGraph(rand.New(rand.NewSource(1)), 50000, 10, true)
	b.ReportAllocs()
	for b.Loop() {
		flatSink = Flatten(g)
	}
}
