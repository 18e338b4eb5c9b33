package gateway

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
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

// scalarHeadDistRows is every connected head pair's hop distance: one
// whole-graph BFS per head, keeping the reachable later heads.
func scalarHeadDistRows(g *graph.Graph, heads []int) []graph.WEdge {
	var rows []graph.WEdge
	for i, u := range heads {
		dist := g.BFS(u)
		for _, v := range heads[i+1:] {
			if d := dist[v]; d != graph.Unreachable {
				rows = append(rows, graph.WEdge{U: u, V: v, Weight: d})
			}
		}
	}
	return rows
}

// denseGMST is the dense oracle of G-MST: the minimum spanning forest of
// the complete virtual graph over every connected head pair
// (scalarHeadDistRows), each tree link routed by Graph.ShortestPath.
func denseGMST(g *graph.Graph, c *cluster.Clustering) *Result {
	res := newResult(GMST)
	for _, e := range graph.NewWGraph(c.Heads, scalarHeadDistRows(g, c.Heads)).MST() {
		link := canon(e.U, e.V)
		res.addLink(link[0], link[1], g.ShortestPath(link[0], link[1]))
	}
	res.finish(c)
	return res
}

// checkGMST fails unless G-MST on the NC virtual graph, serial and on
// three workers, deep-equals the dense oracle.
func checkGMST(t *testing.T, label string, g *graph.Graph, c *cluster.Clustering) {
	t.Helper()
	ctx := context.Background()
	want := denseGMST(g, c)
	fg := graph.Flatten(g)
	for _, p := range []*partition.Pool{nil, partition.NewPool(3)} {
		sel, err := ncr.SelectPar(ctx, g, fg, c, GMST.NeighborRule(), nil, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSelectedPar(ctx, g, fg, c, sel, GMST, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s workers=%d: G-MST differs from the dense oracle:\n got %+v\nwant %+v", label, p.Workers(), got, want)
		}
	}
}

// oraclePairs is the NC selection's head pairs plus random head pairs,
// which on a disconnected graph include unreachable ones.
func oraclePairs(t *testing.T, g *graph.Graph, c *cluster.Clustering, rng *rand.Rand) [][2]int {
	pairs := selectNC(t, g, c).Pairs()
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
			pairs := oraclePairs(t, g, c, rng)
			check("cold", g, pairs, nil)

			prev := run(t, g, c, nil, NCMesh)
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

// TestGMSTMatchesDenseOracle: the MST of the NC virtual graph is the
// MST over all head pairs, links, paths and gateways alike, on the
// oracle graphs (connected, disconnected, and with departed slots).
func TestGMSTMatchesDenseOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := oracleGraph(t, seed)
		for k := 1; k <= 3; k++ {
			checkGMST(t, fmt.Sprintf("seed %d k=%d", seed, k), g, cluster.Run(g, cluster.Options{K: k}))
		}
	}
}

// FuzzGMST: on arbitrary graphs (n ≤ 120, isolated nodes and
// disconnected parts included, k in 1..4), G-MST on the NC virtual graph
// equals the dense oracle for one and three workers.
func FuzzGMST(f *testing.F) {
	f.Add([]byte{8, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Add([]byte{30, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 20, 21, 21, 22, 22, 23})
	f.Add([]byte{119, 3, 1, 2, 3, 4, 9, 17, 17, 33, 5, 9, 21, 30, 30, 2, 60, 61, 61, 90})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%120
		k := 1 + next()%4
		g := graph.New(n)
		for len(data) >= 2 {
			if u, v := next()%n, next()%n; u != v {
				g.AddEdge(u, v)
			}
		}
		checkGMST(t, fmt.Sprintf("n=%d k=%d", n, k), g, cluster.Run(g, cluster.Options{K: k}))
	})
}
