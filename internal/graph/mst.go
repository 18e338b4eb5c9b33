package graph

import (
	"container/heap"
	"fmt"
	"sort"
)

// WEdge is a weighted undirected edge of a virtual graph. The gateway
// algorithms build virtual graphs whose vertices are clusterheads and
// whose weights are hop counts of the underlying shortest paths.
type WEdge struct {
	U, V   int
	Weight int
}

// Less imposes the total order (Weight, min ID, max ID) used to break hop
// count ties, exactly the paper's rule "the IDs of two nodes of a virtual
// link can be used to break a tie in hop count". A total order makes the
// minimum spanning tree unique, which both LMST's connectivity proof and
// our distributed/centralized equivalence tests rely on.
func (e WEdge) Less(f WEdge) bool {
	if e.Weight != f.Weight {
		return e.Weight < f.Weight
	}
	eu, ev := ordered(e.U, e.V)
	fu, fv := ordered(f.U, f.V)
	if eu != fu {
		return eu < fu
	}
	return ev < fv
}

func ordered(a, b int) (int, int) {
	if a <= b {
		return a, b
	}
	return b, a
}

// canonical returns the edge with U ≤ V so that the same undirected edge
// always compares and hashes identically.
func (e WEdge) canonical() WEdge {
	e.U, e.V = ordered(e.U, e.V)
	return e
}

// SortWEdges sorts edges by the total order of Less.
func SortWEdges(edges []WEdge) {
	sort.Slice(edges, func(i, j int) bool { return edges[i].Less(edges[j]) })
}

// WGraph is a weighted undirected graph over an arbitrary (sparse) vertex
// set, used for the virtual clusterhead graphs. Unlike Graph it does not
// require dense 0..N-1 vertex IDs.
type WGraph struct {
	adj map[int][]WEdge // adjacency: vertex -> incident edges (U = vertex)
}

// NewWGraph returns an empty weighted graph.
func NewWGraph() *WGraph {
	return &WGraph{adj: make(map[int][]WEdge)}
}

// AddVertex ensures v exists even if isolated.
func (w *WGraph) AddVertex(v int) {
	if _, ok := w.adj[v]; !ok {
		w.adj[v] = nil
	}
}

// AddEdge inserts the undirected edge (u, v, weight). Re-adding an
// existing edge keeps the smaller weight.
func (w *WGraph) AddEdge(u, v, weight int) {
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

func (w *WGraph) removeEdge(u, v int) {
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
func (w *WGraph) Weight(u, v int) (int, bool) {
	for _, e := range w.adj[u] {
		if e.V == v {
			return e.Weight, true
		}
	}
	return 0, false
}

// HasVertex reports whether v is present.
func (w *WGraph) HasVertex(v int) bool {
	_, ok := w.adj[v]
	return ok
}

// Vertices returns the sorted vertex set.
func (w *WGraph) Vertices() []int {
	out := make([]int, 0, len(w.adj))
	for v := range w.adj {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// NumVertices returns the number of vertices.
func (w *WGraph) NumVertices() int { return len(w.adj) }

// Neighbors returns the sorted neighbor IDs of u.
func (w *WGraph) Neighbors(u int) []int {
	out := make([]int, 0, len(w.adj[u]))
	for _, e := range w.adj[u] {
		out = append(out, e.V)
	}
	sort.Ints(out)
	return out
}

// Edges returns every undirected edge once (U < V), sorted by Less.
func (w *WGraph) Edges() []WEdge {
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

// Connected reports whether w is connected (true for ≤ 1 vertices).
func (w *WGraph) Connected() bool {
	if len(w.adj) <= 1 {
		return true
	}
	var start int
	for v := range w.adj {
		start = v
		break
	}
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range w.adj[u] {
			if !seen[e.V] {
				seen[e.V] = true
				stack = append(stack, e.V)
			}
		}
	}
	return len(seen) == len(w.adj)
}

// MST computes the minimum spanning forest of w with Prim's algorithm
// under the total edge order of WEdge.Less, returning the chosen edges in
// canonical form sorted by Less. Because the order is total, the result
// is the unique MST of each component.
func (w *WGraph) MST() []WEdge {
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
// spanning tree of the subgraph induced on u's closed neighborhood
// {u} ∪ N(u). This is the LMST primitive: node u keeps exactly these
// neighbors. It runs Prim from u over the closed neighborhood only, so
// it reads u's neighbors' adjacency and nothing else of w. The edge
// order of WEdge.Less is total, so the tree is unique and starting Prim
// at u does not change it.
func (w *WGraph) LocalMST(u int) []int {
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
