// Package routing implements cluster-based hierarchical routing, the
// second application the paper's introduction motivates (smaller routing
// tables and fewer route updates, as in the (α,t) framework, the
// B-protocol, and MMWN).
//
// A packet from src to dst travels src → head(src) inside the source
// cluster, then across the clusterhead backbone (the virtual links
// realized by the gateway paths), then head(dst) → dst inside the
// destination cluster. Only heads keep backbone state; members only know
// the route to their own head, which is why the tables shrink.
//
// The price is path stretch: the hierarchical route can be longer than
// the flat shortest path. Stretch (and the table-size win) as a function
// of k is the extension experiment `khopsim -fig routing`.
package routing

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
)

// Router routes over a built connected k-hop clustering.
type Router struct {
	g        *graph.Graph
	c        *cluster.Clustering
	res      *gateway.Result
	backbone *graph.WGraph
	// scratch pools BFS buffers for the per-query walks (Route's
	// intra-cluster legs, Stretch's flat-distance check), keeping
	// concurrent queries free of N-sized allocations.
	scratch sync.Pool
}

// New builds a router from a network, its clustering, and a gateway
// result whose links connect all clusterheads. The backbone's links are
// the result's gateway paths, weighted by hop count, so every link a
// route crosses has its path.
func New(g *graph.Graph, c *cluster.Clustering, res *gateway.Result) *Router {
	links := make([]graph.WEdge, 0, len(res.Paths))
	for link, path := range res.Paths {
		links = append(links, graph.WEdge{U: link[0], V: link[1], Weight: len(path) - 1})
	}
	// Canonical order, so map order never reaches the build.
	slices.SortFunc(links, func(a, b graph.WEdge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	r := &Router{g: g, c: c, res: res, backbone: graph.NewWGraph(c.Heads, links)}
	r.scratch.New = func() any { return graph.NewScratch() }
	return r
}

// Route returns the hierarchical route from src to dst (both inclusive),
// or an error if either node lies outside [0, N) or the backbone cannot
// connect the two clusters (only possible on disconnected inputs).
//
// The intra-cluster legs src → head(src) and head(dst) → dst are
// early-exit BFS walks in pooled scratch buffers, so a leg costs the
// ball around its source out to the head, not the whole graph. Ties are
// broken as in graph.ShortestPath: every vertex steps to its smallest-ID
// neighbor one hop closer to the leg's source. The backbone leg is the
// weighted shortest head path over the gateway links.
func (r *Router) Route(src, dst int) ([]int, error) {
	if n := r.g.N(); src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("routing: route %d → %d: node out of range [0,%d)", src, dst, n)
	}
	if src == dst {
		return []int{src}, nil
	}
	sc := r.scratch.Get().(*graph.Scratch)
	defer r.scratch.Put(sc)
	hs, hd := r.c.Head[src], r.c.Head[dst]
	if hs == hd {
		// Intra-cluster: members route through their shared head's
		// cluster; the head is the rendezvous.
		up := r.g.ShortestPathScratch(sc, src, hs)
		down := r.g.ShortestPathScratch(sc, hs, dst)
		return splice(up, down), nil
	}
	headPath := r.backbone.ShortestPath(hs, hd)
	if headPath == nil {
		return nil, fmt.Errorf("routing: no backbone path between heads %d and %d", hs, hd)
	}
	route := r.g.ShortestPathScratch(sc, src, hs)
	for i := 0; i+1 < len(headPath); i++ {
		route = splice(route, r.linkPath(headPath[i], headPath[i+1]))
	}
	route = splice(route, r.g.ShortestPathScratch(sc, hd, dst))
	return route, nil
}

// linkPath returns the gateway path of a backbone link oriented from u
// to v.
func (r *Router) linkPath(u, v int) []int {
	path := r.res.Paths[[2]int{min(u, v), max(u, v)}]
	if path[0] == u {
		return path
	}
	rev := make([]int, len(path))
	for i, x := range path {
		rev[len(path)-1-i] = x
	}
	return rev
}

// splice concatenates two routes that share their junction vertex. The
// append is capped at a's length so growing the route can never write
// into a shared backing array: a may alias a gateway path retained in
// res.Paths (linkPath hands those out un-copied when the link is
// already oriented src-ward), and a second Route call must find them
// intact.
func splice(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return append(a[:len(a):len(a)], b[1:]...)
}

// Stretch returns the ratio of the hierarchical route length to the flat
// shortest-path length between src and dst (1.0 = optimal). For adjacent
// or identical nodes the stretch is 1. Route's errors, an out-of-range
// node among them, pass through.
func (r *Router) Stretch(src, dst int) (float64, error) {
	route, err := r.Route(src, dst)
	if err != nil {
		return 0, err
	}
	// Early-exiting scratch BFS instead of a whole-graph HopDist: the
	// stretch experiment queries thousands of pairs per trial, and most
	// flat distances are far smaller than the graph's diameter.
	sc := r.scratch.Get().(*graph.Scratch)
	flat := r.g.HopDistScratch(sc, src, dst)
	r.scratch.Put(sc)
	if flat <= 0 {
		return 1, nil
	}
	return float64(len(route)-1) / float64(flat), nil
}

// TableSizes compares routing state: flat link-state routing needs every
// node to know every other node (N entries per node), while hierarchical
// routing needs members to know the next hop to their head (1 entry) and
// heads to know the backbone (heads + incident virtual links) plus their
// own members.
func (r *Router) TableSizes() (flat, hierarchical int) {
	n := r.g.N()
	flat = n * (n - 1)
	sizes := r.c.ClusterSizes()
	for _, h := range r.c.Heads {
		// head: one entry per member, one per backbone vertex
		hierarchical += sizes[h] - 1 + len(r.c.Heads) - 1
	}
	// members: one entry (toward the head)
	hierarchical += n - len(r.c.Heads)
	return flat, hierarchical
}

// ValidateRoute checks that a route is a genuine walk in the network
// (every consecutive pair is an edge) connecting src to dst.
func (r *Router) ValidateRoute(route []int, src, dst int) error {
	if len(route) == 0 {
		return fmt.Errorf("routing: empty route")
	}
	if route[0] != src || route[len(route)-1] != dst {
		return fmt.Errorf("routing: route endpoints %d..%d, want %d..%d",
			route[0], route[len(route)-1], src, dst)
	}
	for i := 0; i+1 < len(route); i++ {
		if !r.g.HasEdge(route[i], route[i+1]) {
			return fmt.Errorf("routing: (%d,%d) is not a link", route[i], route[i+1])
		}
	}
	return nil
}
