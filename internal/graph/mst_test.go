package graph

import (
	"math/rand"
	"reflect"

	"testing"
	"testing/quick"
)

func TestWEdgeLessTotalOrder(t *testing.T) {
	a := WEdge{U: 1, V: 2, Weight: 3}
	b := WEdge{U: 1, V: 3, Weight: 3}
	c := WEdge{U: 0, V: 9, Weight: 4}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("ID tiebreak broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("weight ordering broken")
	}
	// Orientation must not matter.
	flipped := WEdge{U: 2, V: 1, Weight: 3}
	if a.Less(flipped) || flipped.Less(a) {
		t.Fatal("same undirected edge compares unequal across orientations")
	}
}

func TestWEdgeLessIsStrictOrder(t *testing.T) {
	f := func(u1, v1, w1, u2, v2, w2 uint8) bool {
		if u1 == v1 || u2 == v2 {
			return true
		}
		a := WEdge{U: int(u1), V: int(v1), Weight: int(w1)}
		b := WEdge{U: int(u2), V: int(v2), Weight: int(w2)}
		// antisymmetry
		if a.Less(b) && b.Less(a) {
			return false
		}
		// irreflexivity
		return !a.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWGraphAddEdgeKeepsSmallerWeight(t *testing.T) {
	w := NewWGraph()
	w.AddEdge(1, 2, 5)
	w.AddEdge(2, 1, 3)
	if got, _ := w.Weight(1, 2); got != 3 {
		t.Fatalf("weight=%d, want 3", got)
	}
	w.AddEdge(1, 2, 9)
	if got, _ := w.Weight(2, 1); got != 3 {
		t.Fatalf("weight=%d after worse re-add", got)
	}
	if _, ok := w.Weight(1, 3); ok {
		t.Fatal("phantom edge")
	}
}

func TestWGraphSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	NewWGraph().AddEdge(3, 3, 1)
}

func TestWGraphVerticesAndNeighbors(t *testing.T) {
	w := NewWGraph()
	w.AddVertex(9)
	w.AddEdge(5, 2, 1)
	w.AddEdge(5, 7, 2)
	if got := w.Vertices(); !reflect.DeepEqual(got, []int{2, 5, 7, 9}) {
		t.Fatalf("Vertices=%v", got)
	}
	if got := w.Neighbors(5); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Fatalf("Neighbors=%v", got)
	}
	if w.NumVertices() != 4 {
		t.Fatalf("NumVertices=%d", w.NumVertices())
	}
	if !w.HasVertex(9) || w.HasVertex(1) {
		t.Fatal("HasVertex wrong")
	}
}

func TestWGraphEdgesSorted(t *testing.T) {
	w := NewWGraph()
	w.AddEdge(4, 5, 9)
	w.AddEdge(1, 2, 3)
	w.AddEdge(1, 9, 3)
	edges := w.Edges()
	for i := 1; i < len(edges); i++ {
		if edges[i].Less(edges[i-1]) {
			t.Fatalf("edges unsorted: %v", edges)
		}
	}
	if len(edges) != 3 {
		t.Fatalf("len=%d", len(edges))
	}
}

func TestWGraphConnected(t *testing.T) {
	w := NewWGraph()
	if !w.Connected() {
		t.Fatal("empty graph should be connected")
	}
	w.AddEdge(1, 2, 1)
	w.AddEdge(3, 4, 1)
	if w.Connected() {
		t.Fatal("two components reported connected")
	}
	w.AddEdge(2, 3, 1)
	if !w.Connected() {
		t.Fatal("now connected")
	}
}

// kruskalWeight is the brute-force oracle: total MST weight via Kruskal.
func kruskalWeight(w *WGraph) int {
	edges := w.Edges()
	SortWEdges(edges)
	idx := make(map[int]int)
	for i, v := range w.Vertices() {
		idx[v] = i
	}
	uf := NewUnionFind(len(idx))
	total := 0
	for _, e := range edges {
		if uf.Union(idx[e.U], idx[e.V]) {
			total += e.Weight
		}
	}
	return total
}

func randomWGraph(n, extraEdges int, seed int64) *WGraph {
	rng := rand.New(rand.NewSource(seed))
	w := NewWGraph()
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		w.AddEdge(perm[i]*3, perm[i+1]*3, 1+rng.Intn(20)) // sparse IDs on purpose
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n)*3, rng.Intn(n)*3
		if u != v {
			w.AddEdge(u, v, 1+rng.Intn(20))
		}
	}
	return w
}

func TestMSTMatchesKruskal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := randomWGraph(15, 25, seed)
		mst := w.MST()
		if len(mst) != w.NumVertices()-1 {
			t.Fatalf("seed %d: MST has %d edges for %d vertices", seed, len(mst), w.NumVertices())
		}
		total := 0
		for _, e := range mst {
			total += e.Weight
		}
		if want := kruskalWeight(w); total != want {
			t.Fatalf("seed %d: Prim weight %d ≠ Kruskal weight %d", seed, total, want)
		}
	}
}

func TestMSTSpansAndIsAcyclic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := randomWGraph(12, 20, seed)
		mst := w.MST()
		idx := make(map[int]int)
		for i, v := range w.Vertices() {
			idx[v] = i
		}
		uf := NewUnionFind(len(idx))
		for _, e := range mst {
			if !uf.Union(idx[e.U], idx[e.V]) {
				t.Fatalf("seed %d: cycle in MST", seed)
			}
		}
		if uf.Sets() != 1 {
			t.Fatalf("seed %d: MST does not span (%d sets)", seed, uf.Sets())
		}
	}
}

// TestMSTUnique exploits the total edge order: the MST must be unique, so
// Prim's result must be identical to Kruskal's edge set, not just equal
// in weight.
func TestMSTUnique(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := randomWGraph(12, 30, seed)
		prim := w.MST()
		// Kruskal edge set under the same total order.
		edges := w.Edges()
		SortWEdges(edges)
		idx := make(map[int]int)
		for i, v := range w.Vertices() {
			idx[v] = i
		}
		uf := NewUnionFind(len(idx))
		var kruskal []WEdge
		for _, e := range edges {
			if uf.Union(idx[e.U], idx[e.V]) {
				kruskal = append(kruskal, e)
			}
		}
		SortWEdges(kruskal)
		if !reflect.DeepEqual(prim, kruskal) {
			t.Fatalf("seed %d: Prim %v ≠ Kruskal %v", seed, prim, kruskal)
		}
	}
}

func TestMSTForest(t *testing.T) {
	w := NewWGraph()
	w.AddEdge(0, 1, 1)
	w.AddEdge(2, 3, 1)
	w.AddEdge(3, 4, 2)
	mst := w.MST()
	if len(mst) != 3 {
		t.Fatalf("forest MST has %d edges, want 3", len(mst))
	}
}

func TestLocalMST(t *testing.T) {
	// Star with distinct weights: center keeps all leaves, leaves keep
	// only the center.
	w := NewWGraph()
	w.AddEdge(0, 1, 1)
	w.AddEdge(0, 2, 2)
	w.AddEdge(0, 3, 3)
	if got := w.LocalMST(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("LocalMST(0)=%v", got)
	}
	if got := w.LocalMST(2); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("LocalMST(2)=%v", got)
	}
	// Triangle: heaviest edge excluded.
	tri := NewWGraph()
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 2)
	tri.AddEdge(0, 2, 3)
	if got := tri.LocalMST(0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("triangle LocalMST(0)=%v", got)
	}
	// An absent vertex keeps nothing.
	if got := tri.LocalMST(99); got != nil {
		t.Fatalf("absent LocalMST(99)=%v", got)
	}
}

func TestSortWEdges(t *testing.T) {
	edges := []WEdge{{U: 3, V: 4, Weight: 2}, {U: 1, V: 2, Weight: 1}, {U: 0, V: 5, Weight: 2}}
	SortWEdges(edges)
	want := []WEdge{{U: 1, V: 2, Weight: 1}, {U: 0, V: 5, Weight: 2}, {U: 3, V: 4, Weight: 2}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("sorted=%v", edges)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.Sets() != 6 {
		t.Fatalf("Sets=%d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(0, 2) {
		t.Fatal("fresh unions returned false")
	}
	if uf.Union(1, 3) {
		t.Fatal("redundant union returned true")
	}
	if !uf.Same(1, 2) || uf.Same(0, 5) {
		t.Fatal("Same wrong")
	}
	if uf.Sets() != 3 {
		t.Fatalf("Sets=%d, want 3", uf.Sets())
	}
}

func TestUnionFindQuick(t *testing.T) {
	// Property: after any union sequence, Same agrees with a naive
	// labeling computed by repeated relabeling.
	f := func(pairs []uint8) bool {
		const n = 16
		uf := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i])%n, int(pairs[i+1])%n
			uf.Union(a, b)
			relabel(label[a], label[b])
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(i, j) != (label[i] == label[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWGraphNeighborsOfMissingVertex(t *testing.T) {
	w := NewWGraph()
	if got := w.Neighbors(42); len(got) != 0 {
		t.Fatalf("Neighbors of missing vertex = %v", got)
	}
}

func TestMSTDeterministicAcrossRuns(t *testing.T) {
	w := randomWGraph(14, 28, 99)
	first := w.MST()
	for i := 0; i < 5; i++ {
		if got := w.MST(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs", i)
		}
	}
}
