package gateway

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/partition"
	"repro/internal/udg"
)

// oracleGraph is one seeded random unit-disk graph of the scalar oracle
// differentials: dense or sparse (the sparse ones are disconnected),
// from seed 3 on with departed slots — vertices stripped of every edge,
// as churn leaves them.
func oracleGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: 160, AvgDegree: []float64{3, 8}[seed%2]}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if seed > 2 {
		for i := 0; i < 6; i++ {
			net.G.RemoveVertexEdges(rng.Intn(net.G.N()))
		}
	}
	return net.G
}

// scalarPaths is the scalar oracle of shortestPaths: the cached path of
// each pair, else one per-pair early-exit BFS.
func scalarPaths(g *graph.Graph, pairs [][2]int, cache map[[2]int][]int) [][]int {
	s := graph.NewScratch()
	out := make([][]int, len(pairs))
	for i, p := range pairs {
		if path, ok := cache[canon(p[0], p[1])]; ok {
			out[i] = path
			continue
		}
		out[i] = g.ShortestPathScratch(s, p[0], p[1])
	}
	return out
}

// scalarHeadDistRows is the scalar oracle of headDistRows: one
// whole-graph BFS per head, keeping the reachable later heads.
func scalarHeadDistRows(g *graph.Graph, heads []int) []graph.WEdge {
	s := graph.NewScratch()
	var rows []graph.WEdge
	for i, u := range heads {
		dist := g.BFSScratch(s, u)
		for _, v := range heads[i+1:] {
			if d := dist.Dist(v); d != graph.Unreachable {
				rows = append(rows, graph.WEdge{U: u, V: v, Weight: d})
			}
		}
	}
	return rows
}

// oraclePairs is the NC selection's head pairs plus random head pairs,
// which on a disconnected graph include unreachable ones.
func oraclePairs(g *graph.Graph, c *cluster.Clustering, rng *rand.Rand) [][2]int {
	pairs := ncr.NC(g, c).Pairs()
	for i := 0; i < 40 && len(c.Heads) > 1; i++ {
		u, v := c.Heads[rng.Intn(len(c.Heads))], c.Heads[rng.Intn(len(c.Heads))]
		if u != v {
			pairs = append(pairs, canon(u, v))
		}
	}
	return pairs
}

// TestShortestPathsMatchScalarOracle: the grouped batched paths, serial
// and sharded, equal the per-pair scalar paths element for element —
// cold, and again after churn with the warm cache an incremental
// RunSelectedFrom re-run builds.
func TestShortestPathsMatchScalarOracle(t *testing.T) {
	ctx := context.Background()
	pool := partition.NewPool(3)
	check := func(label string, g *graph.Graph, pairs [][2]int, cache map[[2]int][]int) {
		t.Helper()
		want := scalarPaths(g, pairs, cache)
		fg := graph.Flatten(g)
		for _, p := range []*partition.Pool{nil, pool} {
			got, err := shortestPaths(ctx, fg, pairs, nil, cache, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: batched paths differ from the scalar oracle", label, p.Workers())
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		g := oracleGraph(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for k := 1; k <= 3; k++ {
			c := cluster.Run(g, cluster.Options{K: k})
			pairs := oraclePairs(g, c, rng)
			check("cold", g, pairs, nil)

			prev := Mesh(g, c, ncr.NC(g, c), NCMesh)
			churned := g.Clone()
			dirty := map[int]bool{}
			for _, v := range prev.Gateways[:min(2, len(prev.Gateways))] {
				churned.RemoveVertexEdges(v)
				dirty[c.Head[v]] = true
			}
			churned.RemoveVertexEdges(rng.Intn(g.N()))
			// New links can shortcut cached paths that stay intact, so
			// reused paths need not be the fresh shortest ones.
			for i := 0; i < 8; i++ {
				if u, v := rng.Intn(g.N()), rng.Intn(g.N()); u != v {
					churned.AddEdge(u, v)
				}
			}
			cache := reusablePaths(churned, prev, dirty)
			if len(prev.Paths) > 0 && len(cache) == 0 {
				t.Fatalf("seed %d k=%d: churn left no reusable path", seed, k)
			}
			check("warm", churned, pairs, cache)
		}
	}
}

// TestHeadDistRowsMatchScalarOracle: the batched G-MST distance rows,
// serial and sharded, equal one whole-graph BFS row per head.
func TestHeadDistRowsMatchScalarOracle(t *testing.T) {
	ctx := context.Background()
	pool := partition.NewPool(3)
	for seed := int64(1); seed <= 6; seed++ {
		g := oracleGraph(t, seed)
		fg := graph.Flatten(g)
		for k := 1; k <= 3; k++ {
			c := cluster.Run(g, cluster.Options{K: k})
			want := scalarHeadDistRows(g, c.Heads)
			for _, p := range []*partition.Pool{nil, pool} {
				got, err := headDistRows(ctx, fg, c.Heads, nil, p)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d k=%d workers=%d: distance rows differ from the scalar oracle", seed, k, p.Workers())
				}
			}
		}
	}
}
