package graph

import (
	"reflect"
	"sort"
	"testing"
)

// localMSTOracle is the whole-subgraph oracle of WGraph.LocalMST: copy
// the subgraph induced on u's closed neighborhood into a fresh WGraph,
// run the full MST over it and keep u's incident tree edges.
func localMSTOracle(w *WGraph, u int) []int {
	keep := map[int]bool{u: true}
	for _, v := range w.Neighbors(u) {
		keep[v] = true
	}
	sub := NewWGraph()
	for v := range keep {
		sub.AddVertex(v)
	}
	for _, e := range w.Edges() {
		if keep[e.U] && keep[e.V] {
			sub.AddEdge(e.U, e.V, e.Weight)
		}
	}
	var out []int
	for _, e := range sub.MST() {
		switch u {
		case e.U:
			out = append(out, e.V)
		case e.V:
			out = append(out, e.U)
		}
	}
	sort.Ints(out)
	return out
}

// fuzzWGraph decodes bytes into a weighted graph, three bytes per
// record (a, b, weight): sparse, non-contiguous vertex IDs, weights 1–4
// so ties are common, and a == b adds a as an isolated vertex.
func fuzzWGraph(data []byte) *WGraph {
	id := func(b byte) int { return int(b%32)*37 + 5 }
	w := NewWGraph()
	for i := 0; i+2 < len(data); i += 3 {
		u, v := id(data[i]), id(data[i+1])
		if u == v {
			w.AddVertex(u)
			continue
		}
		w.AddEdge(u, v, 1+int(data[i+2]%4))
	}
	return w
}

// FuzzLocalMST checks LocalMST against the induced-subgraph oracle at
// every vertex of a fuzzed weighted graph.
func FuzzLocalMST(f *testing.F) {
	// Path 0-1-2-3 with a heavy chord (0,3): the whole-graph MST drops
	// the chord, yet 0's local view {0, 1, 3} keeps it, so a LocalMST
	// that let Prim leave the closed neighborhood fails here.
	f.Add([]byte{0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 3})
	// All-equal weights: the ID tiebreak alone decides every tree.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 2, 3, 0, 1, 3, 0})
	// Two components plus isolated vertices.
	f.Add([]byte{4, 4, 0, 5, 6, 1, 6, 7, 2, 5, 7, 3, 9, 9, 0, 10, 11, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := fuzzWGraph(data)
		for _, u := range w.Vertices() {
			if got, want := w.LocalMST(u), localMSTOracle(w, u); !reflect.DeepEqual(got, want) {
				t.Fatalf("LocalMST(%d)=%v, oracle %v (edges %v)", u, got, want, w.Edges())
			}
		}
	})
}
