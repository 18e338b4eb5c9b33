package maxmin

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/udg"
)

// scalarMaxMin is the scalar oracle of RunPar: d rounds of Floodmax and
// d of Floodmin over the adjacency lists, the three election rules, and
// one whole-graph BFS per head for the distance-to-head pass.
func scalarMaxMin(g *graph.Graph, d int) *cluster.Clustering {
	n := g.N()
	winner := make([]int, n)
	for v := range winner {
		winner[v] = v
	}
	maxLog, minLog := make([][]int, n), make([][]int, n)
	flood := func(log [][]int, better func(a, b int) bool) {
		next := make([]int, n)
		for v := range next {
			best := winner[v]
			for _, u := range g.Neighbors(v) {
				if better(winner[u], best) {
					best = winner[u]
				}
			}
			next[v] = best
			log[v] = append(log[v], best)
		}
		winner = next
	}
	for r := 0; r < d; r++ {
		flood(maxLog, func(a, b int) bool { return a > b })
	}
	for r := 0; r < d; r++ {
		flood(minLog, func(a, b int) bool { return a < b })
	}
	head := make([]int, n)
	isHead := map[int]bool{}
	for v := range head {
		head[v] = elect(v, maxLog[v], minLog[v])
		isHead[head[v]] = true
	}
	var heads []int
	for h := range isHead {
		head[h] = h
		heads = append(heads, h)
	}
	sort.Ints(heads)
	distToHead := make([]int, n)
	for _, h := range heads {
		dist := g.BFS(h)
		for v := range head {
			if head[v] == h {
				distToHead[v] = dist[v]
			}
		}
	}
	return &cluster.Clustering{K: d, Head: head, Heads: heads, DistToHead: distToHead, Rounds: 2 * d}
}

// TestRunParMatchesScalarOracle: Max-Min on the flat arrays with the
// batched distance pass, serial and sharded, equals the scalar flood and
// per-head BFS on seeded random unit-disk graphs — dense and sparse
// (disconnected), some with departed slots stripped of every edge.
func TestRunParMatchesScalarOracle(t *testing.T) {
	ctx := context.Background()
	pool := partition.NewPool(3)
	disconnected := false
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := udg.Generate(udg.Config{N: 160, AvgDegree: []float64{3, 8}[seed%2]}, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := net.G
		if seed > 2 {
			for i := 0; i < 6; i++ {
				g.RemoveVertexEdges(rng.Intn(g.N()))
			}
		}
		disconnected = disconnected || !g.Connected()
		for d := 1; d <= 3; d++ {
			want := scalarMaxMin(g, d)
			for _, p := range []*partition.Pool{nil, pool} {
				got, err := RunPar(ctx, g, graph.Flatten(g), d, nil, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d d=%d workers=%d: clustering differs from the scalar oracle", seed, d, p.Workers())
				}
			}
		}
	}
	if !disconnected {
		t.Fatal("no disconnected input graph")
	}
}
