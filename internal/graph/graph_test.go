package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomGraph builds a random graph with n vertices and edge probability
// p, guaranteeing determinism through the seed.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// randomConnectedGraph adds a random spanning path first so the graph is
// connected, then sprinkles extra edges.
func randomConnectedGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.AddEdge(0, n-1)
	return g
}

func TestNewAndCounts(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.M() != 2 {
		t.Fatalf("M=%d after two edges", g.M())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
	if !reflect.DeepEqual(g.Neighbors(0), []int{1}) {
		t.Fatalf("Neighbors(0)=%v", g.Neighbors(0))
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(1, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	g.AddEdge(0, 3)
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present after removal")
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("unrelated edge removed")
	}
	g.RemoveEdge(0, 1) // removing a missing edge is a no-op
	if g.M() != 1 {
		t.Fatalf("M=%d", g.M())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1} {
		g.AddEdge(3, v)
	}
	if !reflect.DeepEqual(g.Neighbors(3), []int{1, 2, 4, 5}) {
		t.Fatalf("Neighbors(3)=%v", g.Neighbors(3))
	}
}

func TestDegreeAndAvgDegree(t *testing.T) {
	g := cycleGraph(5)
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("Degree(%d)=%d", v, g.Degree(v))
		}
	}
	if g.AvgDegree() != 2 {
		t.Fatalf("AvgDegree=%v", g.AvgDegree())
	}
	if New(0).AvgDegree() != 0 {
		t.Fatal("empty graph AvgDegree != 0")
	}
}

func TestClone(t *testing.T) {
	g := randomGraph(20, 0.2, 1)
	c := g.Clone()
	if !reflect.DeepEqual(g.Edges(), c.Edges()) {
		t.Fatal("clone differs")
	}
	c.AddEdge(0, 19)
	c.RemoveEdge(0, 19)
	g2 := randomGraph(20, 0.2, 1)
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(2, 0)
	g.AddEdge(3, 1)
	g.AddEdge(0, 1)
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges=%v, want %v", got, want)
	}
}

func TestRemoveVertexEdges(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	g.RemoveVertexEdges(2)
	if g.Degree(2) != 0 {
		t.Fatalf("degree %d", g.Degree(2))
	}
	for _, v := range []int{0, 1, 3} {
		if g.HasEdge(v, 2) {
			t.Fatalf("edge (%d,2) survived", v)
		}
	}
	if !g.HasEdge(0, 4) {
		t.Fatal("unrelated edge removed")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	s := g.InducedSubgraph([]int{0, 1, 2, 4})
	if s.N() != 6 {
		t.Fatalf("vertex count changed: %d", s.N())
	}
	wantEdges := [][2]int{{0, 1}, {1, 2}}
	if got := s.Edges(); !reflect.DeepEqual(got, wantEdges) {
		t.Fatalf("Edges=%v, want %v", got, wantEdges)
	}
}

func TestBFSOnPath(t *testing.T) {
	g := pathGraph(5)
	want := []int{2, 1, 0, 1, 2}
	if got := g.BFS(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS(2)=%v, want %v", got, want)
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist=%v", dist)
	}
}

// floydWarshall is the brute-force oracle for distance tests.
func floydWarshall(g *Graph) [][]int {
	n := g.N()
	const inf = 1 << 29
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for _, e := range g.Edges() {
		d[e[0]][e[1]], d[e[1]][e[0]] = 1, 1
	}
	for m := 0; m < n; m++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][m]+d[m][j] < d[i][j] {
					d[i][j] = d[i][m] + d[m][j]
				}
			}
		}
	}
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= inf {
				d[i][j] = Unreachable
			}
		}
	}
	return d
}

func TestBFSMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomGraph(25, 0.12, seed)
		want := floydWarshall(g)
		for src := 0; src < g.N(); src++ {
			if got := g.BFS(src); !reflect.DeepEqual(got, want[src]) {
				t.Fatalf("seed %d src %d: BFS=%v want %v", seed, src, got, want[src])
			}
		}
	}
}

// within collects the ball EachWithin walks: every vertex within
// maxHops of src, with its hop distance.
func within(g *Graph, src, maxHops int) map[int]int {
	ball := make(map[int]int)
	g.EachWithin(nil, src, maxHops, func(v, d int) bool {
		ball[v] = d
		return true
	})
	return ball
}

// TestBFSWithinMatchesBFS: the bounded BFS walk (EachWithin) visits
// exactly the vertices the whole-graph BFS puts within maxHops, at the
// same distances.
func TestBFSWithinMatchesBFS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(30, 0.1, seed)
		for _, maxHops := range []int{0, 1, 2, 3, 100} {
			for src := 0; src < g.N(); src += 7 {
				full := g.BFS(src)
				got := within(g, src, maxHops)
				for v, d := range full {
					_, in := got[v]
					if d != Unreachable && d <= maxHops {
						if !in || got[v] != d {
							t.Fatalf("seed %d src %d maxHops %d v %d: got %v want %d", seed, src, maxHops, v, got[v], d)
						}
					} else if in && v != src {
						t.Fatalf("seed %d src %d maxHops %d: extra vertex %d", seed, src, maxHops, v)
					}
				}
			}
		}
	}
}

func TestHopDist(t *testing.T) {
	g := cycleGraph(8)
	if d := g.HopDist(0, 4); d != 4 {
		t.Fatalf("HopDist=%d", d)
	}
	if d := g.HopDist(0, 7); d != 1 {
		t.Fatalf("HopDist=%d", d)
	}
}

func TestShortestPathProperties(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomConnectedGraph(30, 0.08, seed)
		dist := make([][]int, g.N())
		for v := range dist {
			dist[v] = g.BFS(v)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			path := g.ShortestPath(u, v)
			if path == nil {
				t.Fatalf("no path %d→%d in connected graph", u, v)
			}
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("endpoints wrong: %v", path)
			}
			if len(path)-1 != dist[u][v] {
				t.Fatalf("length %d ≠ dist %d", len(path)-1, dist[u][v])
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.HasEdge(path[i], path[i+1]) {
					t.Fatalf("non-edge on path: %v", path)
				}
			}
		}
	}
}

// TestShortestPathMinIDRule pins the deterministic tie-break: each node
// on the path uses its smallest-ID neighbor that is one hop closer to
// the source.
func TestShortestPathMinIDRule(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomConnectedGraph(25, 0.15, seed)
		for u := 0; u < g.N(); u += 5 {
			dist := g.BFS(u)
			for v := 0; v < g.N(); v += 3 {
				path := g.ShortestPath(u, v)
				for i := len(path) - 1; i > 0; i-- {
					cur, pre := path[i], path[i-1]
					for _, w := range g.Neighbors(cur) {
						if dist[w] == dist[cur]-1 {
							if w != pre {
								t.Fatalf("seed %d %d→%d: node %d chose parent %d, min-ID is %d",
									seed, u, v, cur, pre, w)
							}
							break
						}
					}
				}
			}
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := pathGraph(3)
	if got := g.ShortestPath(1, 1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("self path = %v", got)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	if got := g.ShortestPath(0, 3); got != nil {
		t.Fatalf("path to unreachable = %v", got)
	}
}

func TestConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
	if !cycleGraph(5).Connected() {
		t.Fatal("cycle not connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestConnectedAmong(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	if !g.ConnectedAmong([]int{0, 2}) {
		t.Fatal("0 and 2 are connected")
	}
	if g.ConnectedAmong([]int{0, 4}) {
		t.Fatal("0 and 4 are not connected")
	}
	if !g.ConnectedAmong(nil) || !g.ConnectedAmong([]int{3}) {
		t.Fatal("trivial sets should be connected")
	}
}

// TestBFSWithinQuick is a testing/quick property of the bounded BFS
// walk (EachWithin): for random paths of random lengths, the ball of
// radius k around a vertex has exactly min(n-1, i+k) - max(0, i-k) + 1
// vertices.
func TestBFSWithinQuick(t *testing.T) {
	f := func(rawN, rawI, rawK uint8) bool {
		n := int(rawN%40) + 2
		i := int(rawI) % n
		k := int(rawK % 10)
		g := pathGraph(n)
		ball := within(g, i, k)
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		hi := i + k
		if hi > n-1 {
			hi = n - 1
		}
		return len(ball) == hi-lo+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
