package routing

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

func testRouter(t testing.TB, n int, deg float64, k int, seed int64) (*Router, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: k})
	res := connect(t, net.G, c, gateway.ACLMST)
	return New(net.G, c, res), net.G
}

// TestRouteValidity: every route is a real walk with the right
// endpoints, for all pairs on several instances.
func TestRouteValidity(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		r, g := testRouter(t, 60, 6, k, int64(k))
		for src := 0; src < g.N(); src += 5 {
			for dst := 0; dst < g.N(); dst += 7 {
				route, err := r.Route(src, dst)
				if err != nil {
					t.Fatalf("k=%d %d→%d: %v", k, src, dst, err)
				}
				if err := r.ValidateRoute(route, src, dst); err != nil {
					t.Fatalf("k=%d %d→%d: %v", k, src, dst, err)
				}
			}
		}
	}
}

func TestRouteSelf(t *testing.T) {
	r, _ := testRouter(t, 40, 6, 2, 3)
	route, err := r.Route(5, 5)
	if err != nil || len(route) != 1 || route[0] != 5 {
		t.Fatalf("route=%v err=%v", route, err)
	}
	s, err := r.Stretch(5, 5)
	if err != nil || s != 1 {
		t.Fatalf("stretch=%v err=%v", s, err)
	}
}

// TestStretchAtLeastOne: a hierarchical route can never beat the flat
// shortest path.
func TestStretchAtLeastOne(t *testing.T) {
	r, g := testRouter(t, 70, 7, 2, 5)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		s, err := r.Stretch(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if s < 1 {
			t.Fatalf("%d→%d stretch %v < 1", src, dst, s)
		}
	}
}

// TestStretchBounded: hierarchical detours are bounded in practice; mean
// stretch over random pairs stays modest (< 2.5 on these instances).
func TestStretchBounded(t *testing.T) {
	r, g := testRouter(t, 100, 7, 2, 7)
	rng := rand.New(rand.NewSource(11))
	var sum float64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		s, err := r.Stretch(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		sum += s
	}
	if mean := sum / trials; mean > 2.5 {
		t.Fatalf("mean stretch %v", mean)
	}
}

// TestIntraClusterThroughHead: intra-cluster routes rendezvous at the
// shared clusterhead.
func TestIntraClusterThroughHead(t *testing.T) {
	r, g := testRouter(t, 80, 7, 3, 13)
	// find two distinct members of one cluster
	byHead := map[int][]int{}
	for v := 0; v < g.N(); v++ {
		h := r.c.Head[v]
		if v != h {
			byHead[h] = append(byHead[h], v)
		}
	}
	for h, members := range byHead {
		if len(members) < 2 {
			continue
		}
		src, dst := members[0], members[1]
		route, err := r.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		through := false
		for _, v := range route {
			if v == h {
				through = true
			}
		}
		if !through {
			t.Fatalf("intra-cluster route %d→%d skipped head %d: %v", src, dst, h, route)
		}
		return
	}
	t.Skip("no cluster with two members")
}

func TestTableSizes(t *testing.T) {
	r, g := testRouter(t, 100, 6, 2, 17)
	flat, hier := r.TableSizes()
	if flat != g.N()*(g.N()-1) {
		t.Fatalf("flat=%d", flat)
	}
	if hier >= flat {
		t.Fatalf("hierarchical tables (%d) not smaller than flat (%d)", hier, flat)
	}
	if hier <= 0 {
		t.Fatalf("hier=%d", hier)
	}
}

// TestTableSizesShrinkWithK: larger clusters mean fewer heads and less
// backbone state.
func TestTableSizesShrinkWithK(t *testing.T) {
	prev := -1
	for _, k := range []int{1, 2, 3} {
		r, _ := testRouter(t, 100, 6, k, 19)
		_, hier := r.TableSizes()
		if prev >= 0 && hier > prev {
			t.Fatalf("k=%d: tables grew from %d to %d", k, prev, hier)
		}
		prev = hier
	}
}

func TestValidateRouteRejects(t *testing.T) {
	r, _ := testRouter(t, 40, 6, 2, 21)
	if err := r.ValidateRoute(nil, 0, 1); err == nil {
		t.Error("empty route accepted")
	}
	if err := r.ValidateRoute([]int{0}, 0, 1); err == nil {
		t.Error("wrong endpoint accepted")
	}
	if err := r.ValidateRoute([]int{0, 39}, 0, 39); err == nil {
		// nodes 0 and 39 are almost surely not adjacent on this instance
		t.Skip("0 and 39 happen to be adjacent")
	}
}

// TestWGraphShortestPath covers the Dijkstra substrate directly.
func TestWGraphShortestPath(t *testing.T) {
	w := graph.NewWGraph([]int{9}, []graph.WEdge{{U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}, {U: 1, V: 3, Weight: 5}})
	path := w.ShortestPath(1, 3)
	if len(path) != 3 || path[0] != 1 || path[1] != 2 || path[2] != 3 {
		t.Fatalf("path=%v", path)
	}
	if w.ShortestPath(1, 99) != nil {
		t.Fatal("path to missing vertex")
	}
	if p := w.ShortestPath(2, 2); len(p) != 1 {
		t.Fatalf("self path=%v", p)
	}
	if w.ShortestPath(1, 9) != nil {
		t.Fatal("path to isolated vertex")
	}
}

// TestSpliceDoesNotAliasInputs: splicing must never grow into the
// backing array of either input — a regression test for the append
// aliasing bug where a spliced route kept writing through to a retained
// gateway path.
func TestSpliceDoesNotAliasInputs(t *testing.T) {
	a := make([]int, 2, 8) // spare capacity: a plain append would write in place
	a[0], a[1] = 0, 1
	b := []int{1, 2, 3}
	got := splice(a, b)
	got[1] = 99
	if a[1] != 1 {
		t.Fatalf("splice wrote through to its first input: a=%v", a)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(b, want) {
		t.Fatalf("splice mutated its second input: b=%v", b)
	}
}

// TestRouteTwicePreservesGatewayPaths: routing the same pair twice must
// return the same route, and no Route call may mutate the gateway paths
// retained in the Result (splice receives them un-copied).
func TestRouteTwicePreservesGatewayPaths(t *testing.T) {
	r, g := testRouter(t, 80, 6, 2, 17)
	var links [][2]int
	for link := range r.res.Paths {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	before := make(map[[2]int][]int, len(links))
	for _, link := range links {
		before[link] = append([]int(nil), r.res.Paths[link]...)
	}
	for src := 0; src < g.N(); src += 3 {
		for dst := 0; dst < g.N(); dst += 5 {
			first, err := r.Route(src, dst)
			if err != nil {
				t.Fatalf("%d→%d: %v", src, dst, err)
			}
			firstCopy := append([]int(nil), first...)
			second, err := r.Route(src, dst)
			if err != nil {
				t.Fatalf("%d→%d (second): %v", src, dst, err)
			}
			if !reflect.DeepEqual(firstCopy, second) {
				t.Fatalf("%d→%d: second route %v diverged from first %v", src, dst, second, firstCopy)
			}
		}
	}
	if !reflect.DeepEqual(before, r.res.Paths) {
		for _, link := range links {
			if !reflect.DeepEqual(before[link], r.res.Paths[link]) {
				t.Fatalf("gateway path for %v mutated by routing: %v -> %v", link, before[link], r.res.Paths[link])
			}
		}
		t.Fatal("gateway paths mutated by routing")
	}
}

// connect runs core.Connect for algo on the clustering c of g.
func connect(tb testing.TB, g *graph.Graph, c *cluster.Clustering, algo gateway.Algorithm) *gateway.Result {
	tb.Helper()
	out, err := core.Connect(context.Background(), g, graph.Flatten(g), c, algo, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out.Gateway
}
