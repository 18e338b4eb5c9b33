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
	w := NewWGraph(nil, []WEdge{{U: 1, V: 2, Weight: 5}, {U: 2, V: 1, Weight: 3}, {U: 1, V: 2, Weight: 9}})
	if got, want := w.MST(), []WEdge{{U: 1, V: 2, Weight: 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("repeated edge kept %v, want %v", got, want)
	}
	if got := w.ShortestPath(1, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("ShortestPath=%v", got)
	}
}

func TestWGraphSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	NewWGraph(nil, []WEdge{{U: 3, V: 3, Weight: 1}})
}

func TestWGraphVerticesAndNeighbors(t *testing.T) {
	w := NewWGraph([]int{9, 5}, []WEdge{{U: 5, V: 2, Weight: 1}, {U: 5, V: 7, Weight: 2}})
	if got := w.Vertices(); !reflect.DeepEqual(got, []int{2, 5, 7, 9}) {
		t.Fatalf("Vertices=%v", got)
	}
	// A star's center keeps every neighbor in its local MST.
	if got := w.LocalMST(5); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Fatalf("LocalMST(5)=%v", got)
	}
	if got := w.ShortestPath(2, 7); !reflect.DeepEqual(got, []int{2, 5, 7}) {
		t.Fatalf("ShortestPath(2,7)=%v", got)
	}
	if w.LocalMST(9) != nil || w.ShortestPath(2, 9) != nil {
		t.Fatal("isolated vertex 9 has neighbors")
	}
}

func TestWGraphEdgesSorted(t *testing.T) {
	w := NewWGraph(nil, []WEdge{{U: 4, V: 5, Weight: 9}, {U: 2, V: 1, Weight: 3}, {U: 1, V: 9, Weight: 3}})
	edges := w.MST()
	for i := 1; i < len(edges); i++ {
		if edges[i].Less(edges[i-1]) {
			t.Fatalf("edges unsorted: %v", edges)
		}
	}
	for _, e := range edges {
		if e.U > e.V {
			t.Fatalf("edge %v not canonical", e)
		}
	}
	if len(edges) != 3 {
		t.Fatalf("len=%d", len(edges))
	}
}

func TestWGraphConnected(t *testing.T) {
	if w := NewWGraph(nil, nil); len(w.Vertices()) != 0 || w.MST() != nil {
		t.Fatal("empty graph has vertices or edges")
	}
	split := []WEdge{{U: 1, V: 2, Weight: 1}, {U: 3, V: 4, Weight: 1}}
	if w := NewWGraph(nil, split); w.ShortestPath(1, 4) != nil || len(w.MST()) != 2 {
		t.Fatal("two components reported connected")
	}
	joined := append(split, WEdge{U: 2, V: 3, Weight: 1})
	if w := NewWGraph(nil, joined); w.ShortestPath(1, 4) == nil || len(w.MST()) != 3 {
		t.Fatal("now connected")
	}
}

// kruskalWeight is the brute-force oracle: total MST weight via Kruskal
// over the raw edge list, repeats included.
func kruskalWeight(verts []int, edges []WEdge) int {
	edges = append([]WEdge(nil), edges...)
	SortWEdges(edges)
	idx := make(map[int]int)
	for _, v := range verts {
		idx[v] = len(idx)
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

// randomWGraph returns a random connected vertex and edge list with
// sparse IDs and repeated edges.
func randomWGraph(n, extraEdges int, seed int64) (verts []int, edges []WEdge) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	for _, v := range perm {
		verts = append(verts, v*3) // sparse IDs on purpose
	}
	for i := 0; i+1 < n; i++ {
		edges = append(edges, WEdge{U: perm[i] * 3, V: perm[i+1] * 3, Weight: 1 + rng.Intn(20)})
	}
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n)*3, rng.Intn(n)*3
		if u != v {
			edges = append(edges, WEdge{U: u, V: v, Weight: 1 + rng.Intn(20)})
		}
	}
	return verts, edges
}

func TestMSTMatchesKruskal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		verts, edges := randomWGraph(15, 25, seed)
		mst := NewWGraph(verts, edges).MST()
		if len(mst) != len(verts)-1 {
			t.Fatalf("seed %d: MST has %d edges for %d vertices", seed, len(mst), len(verts))
		}
		total := 0
		for _, e := range mst {
			total += e.Weight
		}
		if want := kruskalWeight(verts, edges); total != want {
			t.Fatalf("seed %d: MST weight %d ≠ Kruskal weight %d", seed, total, want)
		}
	}
}

func TestMSTSpansAndIsAcyclic(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		w := NewWGraph(randomWGraph(12, 20, seed))
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
// the Kruskal tree must equal the map reference's Prim tree edge for
// edge, not just in weight. Every LocalMST and ShortestPath must match
// the reference too, on graphs larger than the fuzz target builds.
func TestMSTUnique(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		verts, edges := randomWGraph(60, 150, seed)
		m, w := buildBoth(verts, edges)
		if got, want := w.MST(), m.MST(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Kruskal %v ≠ Prim %v", seed, got, want)
		}
		for _, u := range verts {
			if got, want := w.LocalMST(u), m.LocalMST(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: LocalMST(%d)=%v, reference %v", seed, u, got, want)
			}
			for _, v := range verts[:10] {
				if got, want := w.ShortestPath(u, v), m.ShortestPath(u, v); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: ShortestPath(%d,%d)=%v, reference %v", seed, u, v, got, want)
				}
			}
		}
	}
}

func TestMSTForest(t *testing.T) {
	w := NewWGraph(nil, []WEdge{{U: 0, V: 1, Weight: 1}, {U: 2, V: 3, Weight: 1}, {U: 3, V: 4, Weight: 2}})
	mst := w.MST()
	if len(mst) != 3 {
		t.Fatalf("forest MST has %d edges, want 3", len(mst))
	}
}

func TestLocalMST(t *testing.T) {
	// Star with distinct weights: center keeps all leaves, leaves keep
	// only the center.
	w := NewWGraph(nil, []WEdge{{U: 0, V: 1, Weight: 1}, {U: 0, V: 2, Weight: 2}, {U: 0, V: 3, Weight: 3}})
	if got := w.LocalMST(0); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("LocalMST(0)=%v", got)
	}
	if got := w.LocalMST(2); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("LocalMST(2)=%v", got)
	}
	// Triangle: heaviest edge excluded.
	tri := NewWGraph(nil, []WEdge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2}, {U: 0, V: 2, Weight: 3}})
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
	w := NewWGraph([]int{7}, nil)
	if got := w.LocalMST(42); got != nil {
		t.Fatalf("LocalMST of missing vertex = %v", got)
	}
	if w.ShortestPath(42, 7) != nil || w.ShortestPath(7, 42) != nil || w.ShortestPath(42, 42) != nil {
		t.Fatal("path through missing vertex")
	}
}

func TestMSTDeterministicAcrossRuns(t *testing.T) {
	w := NewWGraph(randomWGraph(14, 28, 99))
	first := w.MST()
	for i := 0; i < 5; i++ {
		if got := w.MST(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs", i)
		}
	}
}
