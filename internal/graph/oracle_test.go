package graph

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// mapWGraph is the map-backed, mutable weighted graph the rank-indexed
// WGraph replaced, kept as its differential reference: Prim for MST and
// LocalMST, and a map Dijkstra for ShortestPath.
type mapWGraph struct {
	adj map[int][]WEdge // adjacency: vertex -> incident edges (U = vertex)
}

func newMapWGraph() *mapWGraph {
	return &mapWGraph{adj: make(map[int][]WEdge)}
}

// AddVertex ensures v exists even if isolated.
func (w *mapWGraph) AddVertex(v int) {
	if _, ok := w.adj[v]; !ok {
		w.adj[v] = nil
	}
}

// AddEdge inserts the undirected edge (u, v, weight). Re-adding an
// existing edge keeps the smaller weight.
func (w *mapWGraph) AddEdge(u, v, weight int) {
	if u == v {
		panic(fmt.Sprintf("wgraph: self-loop at %d", u))
	}
	if cur, ok := w.Weight(u, v); ok {
		if weight >= cur {
			return
		}
		w.removeEdge(u, v)
	}
	w.AddVertex(u)
	w.AddVertex(v)
	w.adj[u] = append(w.adj[u], WEdge{U: u, V: v, Weight: weight})
	w.adj[v] = append(w.adj[v], WEdge{U: v, V: u, Weight: weight})
}

func (w *mapWGraph) removeEdge(u, v int) {
	w.adj[u] = filterOut(w.adj[u], v)
	w.adj[v] = filterOut(w.adj[v], u)
}

func filterOut(edges []WEdge, v int) []WEdge {
	out := edges[:0]
	for _, e := range edges {
		if e.V != v {
			out = append(out, e)
		}
	}
	return out
}

// Weight returns the weight of edge (u, v) and whether it exists.
func (w *mapWGraph) Weight(u, v int) (int, bool) {
	for _, e := range w.adj[u] {
		if e.V == v {
			return e.Weight, true
		}
	}
	return 0, false
}

// HasVertex reports whether v is present.
func (w *mapWGraph) HasVertex(v int) bool {
	_, ok := w.adj[v]
	return ok
}

// Vertices returns the sorted vertex set.
func (w *mapWGraph) Vertices() []int {
	out := make([]int, 0, len(w.adj))
	for v := range w.adj {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns every undirected edge once (U < V), sorted by Less.
func (w *mapWGraph) Edges() []WEdge {
	var out []WEdge
	for u, edges := range w.adj {
		for _, e := range edges {
			if u < e.V {
				out = append(out, e.canonical())
			}
		}
	}
	SortWEdges(out)
	return out
}

// MST computes the minimum spanning forest of w with Prim's algorithm
// under the total edge order of WEdge.Less, returning the chosen edges in
// canonical form sorted by Less.
func (w *mapWGraph) MST() []WEdge {
	inTree := make(map[int]bool, len(w.adj))
	var result []WEdge
	// Deterministic iteration: start Prim from the smallest unvisited
	// vertex of each component.
	for _, start := range w.Vertices() {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		pq := &edgeHeap{}
		heap.Init(pq)
		for _, e := range w.adj[start] {
			heap.Push(pq, e)
		}
		for pq.Len() > 0 {
			e := heap.Pop(pq).(WEdge)
			if inTree[e.V] {
				continue
			}
			inTree[e.V] = true
			result = append(result, e.canonical())
			for _, f := range w.adj[e.V] {
				if !inTree[f.V] {
					heap.Push(pq, f)
				}
			}
		}
	}
	SortWEdges(result)
	return result
}

// LocalMST returns, sorted, u's on-tree neighbors in the minimum
// spanning tree of the subgraph induced on u's closed neighborhood,
// running Prim from u over the closed neighborhood only.
func (w *mapWGraph) LocalMST(u int) []int {
	// inTree holds exactly the closed neighborhood; true once in the tree.
	inTree := make(map[int]bool, len(w.adj[u])+1)
	inTree[u] = true
	pq := &edgeHeap{}
	for _, e := range w.adj[u] {
		inTree[e.V] = false
		heap.Push(pq, e)
	}
	var out []int
	for added := 1; pq.Len() > 0 && added < len(inTree); {
		e := heap.Pop(pq).(WEdge)
		if inTree[e.V] {
			continue
		}
		inTree[e.V] = true
		added++
		if e.U == u {
			out = append(out, e.V)
		}
		for _, f := range w.adj[e.V] {
			if in, local := inTree[f.V]; local && !in {
				heap.Push(pq, f)
			}
		}
	}
	sort.Ints(out)
	return out
}

// ShortestPath returns the minimum-total-weight path between two
// vertices, inclusive of endpoints, or nil when dst is unreachable. Ties
// are broken by preferring smaller predecessor IDs.
func (w *mapWGraph) ShortestPath(src, dst int) []int {
	if !w.HasVertex(src) || !w.HasVertex(dst) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	const inf = int(^uint(0) >> 1)
	dist := make(map[int]int, len(w.adj))
	parent := make(map[int]int, len(w.adj))
	for v := range w.adj {
		dist[v] = inf
	}
	dist[src] = 0
	pq := &vertexHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(vertexDist)
		if top.d > dist[top.v] {
			continue // stale entry
		}
		if top.v == dst {
			break
		}
		for _, e := range w.adj[top.v] {
			nd := top.d + e.Weight
			if nd < dist[e.V] || (nd == dist[e.V] && top.v < parent[e.V]) {
				dist[e.V] = nd
				parent[e.V] = top.v
				heap.Push(pq, vertexDist{v: e.V, d: nd})
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	path := []int{dst}
	for cur := dst; cur != src; cur = parent[cur] {
		path = append(path, parent[cur])
	}
	reverse(path)
	return path
}

// canonical returns the edge with U ≤ V so that the same undirected edge
// always compares and hashes identically.
func (e WEdge) canonical() WEdge {
	e.U, e.V = ordered(e.U, e.V)
	return e
}

type edgeHeap []WEdge

func (h edgeHeap) Len() int           { return len(h) }
func (h edgeHeap) Less(i, j int) bool { return h[i].Less(h[j]) }
func (h edgeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *edgeHeap) Push(x any) { *h = append(*h, x.(WEdge)) }

func (h *edgeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type vertexDist struct {
	v, d int
}

type vertexHeap []vertexDist

func (h vertexHeap) Len() int { return len(h) }
func (h vertexHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h vertexHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *vertexHeap) Push(x any) { *h = append(*h, x.(vertexDist)) }

func (h *vertexHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// buildBoth builds the same graph both ways: the map reference by
// AddVertex/AddEdge in input order, the WGraph by its constructor.
func buildBoth(verts []int, edges []WEdge) (*mapWGraph, *WGraph) {
	m := newMapWGraph()
	for _, v := range verts {
		m.AddVertex(v)
	}
	for _, e := range edges {
		m.AddEdge(e.U, e.V, e.Weight)
	}
	return m, NewWGraph(verts, edges)
}

// fuzzAbsent is a vertex ID fuzzWGraphInput never produces.
const fuzzAbsent = 1

// fuzzWGraphInput decodes bytes into a vertex list and an edge list,
// three bytes per record (a, b, weight): sparse, non-contiguous IDs,
// weights 1–4 so ties and repeated edges of different weights are
// common, and a == b lists a as a vertex, isolated unless an edge
// reaches it.
func fuzzWGraphInput(data []byte) (verts []int, edges []WEdge) {
	id := func(b byte) int { return int(b%32)*37 + 5 }
	for i := 0; i+2 < len(data); i += 3 {
		u, v := id(data[i]), id(data[i+1])
		if u == v {
			verts = append(verts, u)
			continue
		}
		edges = append(edges, WEdge{U: u, V: v, Weight: 1 + int(data[i+2]%4)})
	}
	return verts, edges
}

// FuzzWGraph checks the rank-indexed WGraph against the map-backed
// reference on a fuzzed vertex and edge list: the vertex set, the MST,
// LocalMST at every vertex and at an absent ID, and ShortestPath for
// every ordered pair, the absent ID included.
func FuzzWGraph(f *testing.F) {
	// Path 0-1-2-3 with a heavy chord (0,3): the whole-graph MST drops
	// the chord, yet 0's local view {0, 1, 3} keeps it, so a LocalMST
	// that reads beyond the closed neighborhood fails here.
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 3})
	// All-equal weights: the ID tiebreak alone decides every tree.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 2, 3, 0, 1, 3, 0})
	// Two components plus isolated vertices.
	f.Add([]byte{4, 4, 0, 5, 6, 1, 6, 7, 2, 5, 7, 3, 9, 9, 0, 10, 11, 0})
	f.Add([]byte{})
	// All-equal-weight square 0-1-2-3-0: opposite corners are joined by
	// two equal paths, and the smaller middle vertex must win.
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0})
	// Square 0-1-2-3-0 weighted so that from 0 the larger predecessor 3
	// of 2 settles first (0-3 costs 1, 0-1 costs 2) and 1 ties it later:
	// only the smaller-predecessor tie-break picks 0-1-2.
	f.Add([]byte{0, 1, 1, 1, 2, 0, 2, 3, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		verts, edges := fuzzWGraphInput(data)
		m, w := buildBoth(verts, edges)
		ids := m.Vertices()
		if got := w.Vertices(); !slices.Equal(got, ids) {
			t.Fatalf("Vertices=%v, reference %v", got, ids)
		}
		if got, want := w.MST(), m.MST(); !reflect.DeepEqual(got, want) {
			t.Fatalf("MST=%v, reference %v (edges %v)", got, want, m.Edges())
		}
		for _, u := range append(ids, fuzzAbsent) {
			if got, want := w.LocalMST(u), m.LocalMST(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("LocalMST(%d)=%v, reference %v (edges %v)", u, got, want, m.Edges())
			}
		}
		for _, src := range append(ids, fuzzAbsent) {
			for _, dst := range append(ids, fuzzAbsent) {
				if got, want := w.ShortestPath(src, dst), m.ShortestPath(src, dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("ShortestPath(%d,%d)=%v, reference %v (edges %v)", src, dst, got, want, m.Edges())
				}
			}
		}
	})
}

// pushAllPreorder is the differential reference of preorder: the
// iterative DFS that pushes every unvisited neighbor (reversed, so the
// smallest ID pops first) and skips vertices already ranked when they
// pop. Its stack grows to O(E).
func pushAllPreorder(f *FlatGraph) []int32 {
	n := f.N()
	rank := make([]int32, n)
	for v := range rank {
		rank[v] = -1
	}
	var next int32
	var stack []int32
	for s := 0; s < n; s++ {
		if rank[s] >= 0 {
			continue
		}
		stack = append(stack, int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rank[u] >= 0 {
				continue
			}
			rank[u] = next
			next++
			nbr := f.nbr[f.off[u]:f.off[u+1]]
			for i := len(nbr) - 1; i >= 0; i-- {
				if rank[nbr[i]] < 0 {
					stack = append(stack, nbr[i])
				}
			}
		}
	}
	return rank
}

// TestPreorderMatchesPushAllWalk: the frame-stack DFS ranks every vertex
// exactly as the push-all walk does, on the locality tests' random
// graphs (connected and multi-component) and on the empty and
// single-vertex graphs.
func TestPreorderMatchesPushAllWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := []*Graph{New(0), New(1)}
	for trial := 0; trial < 30; trial++ {
		graphs = append(graphs, msRandomGraph(rng, 2+rng.Intn(300), 1+rng.Float64()*5, trial%2 == 0))
	}
	for i, g := range graphs {
		fg := Flatten(g)
		if got, want := preorder(fg), pushAllPreorder(fg); !slices.Equal(got, want) {
			t.Fatalf("graph %d (n=%d): preorder ranks %v, push-all walk %v", i, g.N(), got, want)
		}
	}
}
