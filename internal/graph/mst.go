package graph

import (
	"cmp"
	"fmt"
	"slices"
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
func (e WEdge) Less(f WEdge) bool { return e.compare(f) < 0 }

func (e WEdge) compare(f WEdge) int {
	eu, ev := ordered(e.U, e.V)
	fu, fv := ordered(f.U, f.V)
	return cmp.Or(cmp.Compare(e.Weight, f.Weight), cmp.Compare(eu, fu), cmp.Compare(ev, fv))
}

func ordered(a, b int) (int, int) {
	if a <= b {
		return a, b
	}
	return b, a
}

// SortWEdges sorts edges by the total order of Less.
func SortWEdges(edges []WEdge) {
	slices.SortFunc(edges, WEdge.compare)
}

// WGraph is an immutable weighted undirected graph over a sparse vertex
// set, used for the virtual clusterhead graphs. A vertex is addressed by
// its rank in the sorted ID list, and its neighbors sit in one CSR row,
// ascending by rank, with int32 weights. Rank order is ID order, so the
// ID tie-breaks of WEdge.Less and ShortestPath read the same on ranks.
type WGraph struct {
	ids  []int // sorted vertex IDs; rank r is ids[r]
	off  []int // row r is arcs[off[r]:off[r+1]]
	arcs []arc
}

// arc is one direction of an edge: the far endpoint's rank and the weight.
type arc struct {
	to, weight int32
}

// NewWGraph builds the graph over verts plus every edge endpoint. An edge
// given more than once, in either orientation, keeps its smallest weight.
// A self-loop panics. The inputs are not retained.
func NewWGraph(verts []int, edges []WEdge) *WGraph {
	ids := slices.Clone(verts)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	ends, all := endRanks(ids, edges)
	if !all {
		for _, e := range edges {
			ids = append(ids, e.U, e.V)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		ends, _ = endRanks(ids, edges)
	}
	w := &WGraph{ids: ids, off: make([]int, len(ids)+1)}

	// Counting sort of both directions of every edge into rows, then
	// each row sorted by (neighbor, weight) and packed in place to its
	// first, lightest, arc per neighbor.
	for _, r := range ends {
		w.off[r+1]++
	}
	for r := range ids {
		w.off[r+1] += w.off[r]
	}
	next := slices.Clone(w.off[:len(ids)])
	w.arcs = make([]arc, 2*len(edges))
	for i, e := range edges {
		u, v := ends[2*i], ends[2*i+1]
		w.arcs[next[u]] = arc{to: v, weight: int32(e.Weight)}
		next[u]++
		w.arcs[next[v]] = arc{to: u, weight: int32(e.Weight)}
		next[v]++
	}
	n := 0
	for r := range ids {
		row := w.arcs[w.off[r]:w.off[r+1]]
		slices.SortFunc(row, func(a, b arc) int {
			return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.weight, b.weight))
		})
		w.off[r] = n
		for _, a := range row {
			if n == w.off[r] || w.arcs[n-1].to != a.to {
				w.arcs[n] = a
				n++
			}
		}
	}
	w.off[len(ids)] = n
	w.arcs = w.arcs[:n]
	return w
}

// endRanks returns the ranks in ids of edge i's endpoints at 2i (U) and
// 2i+1 (V), and whether ids holds every endpoint.
func endRanks(ids []int, edges []WEdge) ([]int32, bool) {
	ends := make([]int32, 2*len(edges))
	all := true
	for i, e := range edges {
		if e.U == e.V {
			panic(fmt.Sprintf("wgraph: self-loop at %d", e.U))
		}
		u, okU := slices.BinarySearch(ids, e.U)
		v, okV := slices.BinarySearch(ids, e.V)
		ends[2*i], ends[2*i+1] = int32(u), int32(v)
		all = all && okU && okV
	}
	return ends, all
}

// rank returns v's rank, or -1 when v is not a vertex.
func (w *WGraph) rank(v int) int {
	if r, ok := slices.BinarySearch(w.ids, v); ok {
		return r
	}
	return -1
}

func (w *WGraph) row(r int) []arc { return w.arcs[w.off[r]:w.off[r+1]] }

// Vertices returns the sorted vertex set.
func (w *WGraph) Vertices() []int { return slices.Clone(w.ids) }

// MST computes the minimum spanning forest of w with Kruskal's algorithm
// under the total edge order of WEdge.Less, returning the chosen edges in
// canonical form (U < V) sorted by Less. Because the order is total, the
// result is the unique MST of each component.
func (w *WGraph) MST() []WEdge {
	// Edges hold ranks until chosen; rank order is ID order, so they
	// sort exactly as their ID forms would.
	edges := make([]WEdge, 0, len(w.arcs)/2)
	for r := range w.ids {
		for _, a := range w.row(r) {
			if int(a.to) > r {
				edges = append(edges, WEdge{U: r, V: int(a.to), Weight: int(a.weight)})
			}
		}
	}
	SortWEdges(edges)
	uf := NewUnionFind(len(w.ids))
	var out []WEdge
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, WEdge{U: w.ids[e.U], V: w.ids[e.V], Weight: e.Weight})
		}
	}
	return out
}

// LocalMST returns, sorted, u's on-tree neighbors in the minimum
// spanning tree of the subgraph induced on u's closed neighborhood
// {u} ∪ N(u). This is the LMST primitive: node u keeps exactly these
// neighbors. It runs Kruskal over the edges among the closed
// neighborhood only, so it reads the rows of u and its neighbors and
// nothing else of w. The edge order of WEdge.Less is total, so the tree
// is unique. An absent u keeps nothing.
func (w *WGraph) LocalMST(u int) []int {
	r := w.rank(u)
	if r < 0 {
		return nil
	}
	// loc is the closed neighborhood in rank order. Local edges name
	// their endpoints by index into loc, which keeps rank (= ID) order,
	// so Less sorts them as it would their ID forms.
	loc := make([]int32, 0, len(w.row(r))+1)
	for _, a := range w.row(r) {
		loc = append(loc, a.to)
	}
	self, _ := slices.BinarySearch(loc, int32(r))
	loc = slices.Insert(loc, self, int32(r))
	var edges []WEdge
	for i, x := range loc {
		// Both x's row and loc ascend: one merge finds x's arcs to later
		// members of the neighborhood.
		j := i + 1
		for _, a := range w.row(int(x)) {
			for j < len(loc) && loc[j] < a.to {
				j++
			}
			if j == len(loc) {
				break
			}
			if loc[j] == a.to {
				edges = append(edges, WEdge{U: i, V: j, Weight: int(a.weight)})
			}
		}
	}
	SortWEdges(edges)
	uf := NewUnionFind(len(loc))
	var out []int
	for _, e := range edges {
		if !uf.Union(e.U, e.V) {
			continue
		}
		switch self {
		case e.U:
			out = append(out, w.ids[loc[e.V]])
		case e.V:
			out = append(out, w.ids[loc[e.U]])
		}
	}
	sort.Ints(out)
	return out
}
