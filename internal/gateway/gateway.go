// Package gateway implements the gateway-selection phase: choosing the
// non-clusterhead nodes that relay between clusterheads so the cluster
// graph becomes connected.
//
// Three algorithms are provided, matching the paper's evaluation:
//
//   - Mesh: for every selected neighbor head pair, all intermediate nodes
//     of one (deterministic) shortest path become gateways.
//   - LMSTGA (§3.2, contribution): build a virtual graph on heads where a
//     virtual link is the shortest path between a selected pair weighted
//     by hop count (ID tiebreak); every head runs LMST on its virtual
//     1-hop neighborhood and keeps only links to its on-tree neighbors;
//     intermediate nodes on kept links become gateways.
//   - GMST: centralized global minimum spanning tree over all heads
//     (weight = hop distance, ID tiebreak), used by the paper as the
//     lower-bound baseline.
//
// Combined with the neighbor selection rules of package ncr these yield
// the paper's four localized algorithms (NC-Mesh, AC-Mesh, NC-LMST,
// AC-LMST) plus the G-MST baseline.
//
// G-MST runs on the NC virtual graph, not on the complete graph of head
// pairs, and still yields the global MST. Every node lies within k hops
// of its head, so for any cut of a component's heads some graph edge
// (u, v) joins a cluster on one side to a cluster on the other, and the
// two heads are at most k+1+k = 2k+1 hops apart: an NC pair crosses
// every cut. Each edge of the (unique, WEdge.Less-ordered) complete-graph
// MST is the minimum across some cut, so it weighs no more than that NC
// pair and is itself within 2k+1 hops, hence NC-selected; the two MSTs
// are the same tree, per component. The argument needs only k-hop
// domination, which every clustering here has (centralized, Max-Min and
// churn-repaired alike).
package gateway

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/partition"
)

// Algorithm identifies a complete gateway-selection pipeline.
type Algorithm int

const (
	// NCMesh is mesh gateways over all heads within 2k+1 hops.
	NCMesh Algorithm = iota
	// ACMesh is mesh gateways over adjacent heads only (A-NCR).
	ACMesh
	// NCLMST is LMSTGA over all heads within 2k+1 hops.
	NCLMST
	// ACLMST is LMSTGA over adjacent heads (the paper's headline).
	ACLMST
	// GMST is the centralized global-MST lower bound.
	GMST
)

// Algorithms lists every pipeline in the order the paper's figures plot
// them.
var Algorithms = []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST}

// String implements fmt.Stringer using the paper's curve labels.
func (a Algorithm) String() string {
	switch a {
	case NCMesh:
		return "NC-Mesh"
	case ACMesh:
		return "AC-Mesh"
	case NCLMST:
		return "NC-LMST"
	case ACLMST:
		return "AC-LMST"
	case GMST:
		return "G-MST"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// NeighborRule returns the neighbor clusterhead selection rule the
// pipeline runs on: A-NCR for the AC algorithms, NC otherwise. G-MST
// takes its global MST over the NC virtual graph, which holds every
// edge of the MST over all head pairs (see the package doc: NC pairs
// cross every cut of a k-hop dominated clustering's heads). An unknown
// algorithm panics.
func (a Algorithm) NeighborRule() ncr.Rule {
	switch a {
	case ACMesh, ACLMST:
		return ncr.RuleANCR
	case NCMesh, NCLMST, GMST:
		return ncr.RuleNC
	default:
		panic(fmt.Sprintf("gateway: unknown algorithm %d", int(a)))
	}
}

// Result is the outcome of a gateway-selection run.
type Result struct {
	Algorithm Algorithm
	// Gateways are the selected non-clusterhead relay nodes, sorted.
	Gateways []int
	// Links are the head pairs that ended up directly connected by a
	// gateway path, in canonical (U < V) form sorted by weight order.
	Links []graph.WEdge
	// Paths maps each canonical link {U, V} to its underlying node path
	// (U first, V last).
	Paths map[[2]int][]int
	// CDS is the connected dominating set: clusterheads ∪ gateways,
	// sorted ascending.
	CDS []int
}

// NumGateways returns the number of distinct gateway nodes.
func (r *Result) NumGateways() int { return len(r.Gateways) }

// CDSSize returns |heads ∪ gateways|, the paper's main metric.
func (r *Result) CDSSize() int { return len(r.CDS) }

// RunSelectedPar runs the gateway-selection stage for algo over an
// already-computed neighbor selection, for callers (like internal/core)
// that need the selection themselves and should not pay for it twice.
// sel must be the selection by algo.NeighborRule(); G-MST takes the MST
// of its virtual graph.
//
// The per-pair shortest-path computations and the per-head local MSTs
// (LMSTGA) shard across pool's workers. The Result — links, paths,
// gateways, CDS — is identical to a serial run for any worker count:
// every sharded item is an independent read-only computation whose
// outputs merge in the serial order. A nil pool (or one worker) runs the
// same loops as one shard.
//
// The BFS fan-outs run on fg, the caller's CSR snapshot of g (g itself
// is not read): per-pair shortest paths group by source into one shared
// early-exiting walk per head. Paths break ties toward the smallest-ID
// parent one hop closer to the source, as Graph.ShortestPath does.
func RunSelectedPar(ctx context.Context, g *graph.Graph, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, algo Algorithm, s *graph.Scratch, pool *partition.Pool) (*Result, error) {
	return runSelected(ctx, fg, c, sel, algo, s, nil, pool)
}

// RunSelectedFrom is RunSelectedPar for incremental repair: it re-runs
// gateway selection after a local topology change, reusing from prev the
// gateway paths of virtual links the change did not touch. Those paths
// are all it takes from prev; every later step runs as in
// RunSelectedPar. A cached path is kept when the link is still
// selected, neither endpoint head is in dirty (the head set whose
// neighborhoods the repair invalidated), and every edge of the path
// still exists in g — so after events touching a few heads, only links
// incident to those heads (or with severed paths) pay for a fresh
// shortest-path computation, the §3.3 locality argument.
//
// Reused paths were shortest when first computed; a later Join can
// introduce a shorter alternative that only a full re-run would find.
// That keeps repairs local at the cost of (bounded) path staleness,
// exactly the trade the paper makes for maintenance. GMST ignores prev
// and recomputes every path, so its weights stay true hop distances and
// its tree the global MST. fg is the caller's CSR snapshot of g, as for
// RunSelectedPar.
func RunSelectedFrom(ctx context.Context, g *graph.Graph, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, algo Algorithm, s *graph.Scratch, prev *Result, dirty map[int]bool) (*Result, error) {
	var cache map[[2]int][]int
	if prev != nil && algo != GMST {
		cache = reusablePaths(g, prev, dirty)
	}
	return runSelected(ctx, fg, c, sel, algo, s, cache, nil)
}

// reusablePaths returns the paths of prev that a re-run on g may reuse,
// keyed by canonical link: those whose endpoint heads are not dirty and
// whose every edge still exists in g.
func reusablePaths(g *graph.Graph, prev *Result, dirty map[int]bool) map[[2]int][]int {
	cache := make(map[[2]int][]int, len(prev.Paths))
	for link, path := range prev.Paths {
		if dirty[link[0]] || dirty[link[1]] {
			continue
		}
		if pathIntact(g, path) {
			cache[link] = path
		}
	}
	return cache
}

func runSelected(ctx context.Context, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, algo Algorithm, s *graph.Scratch, cache map[[2]int][]int, pool *partition.Pool) (*Result, error) {
	switch algo {
	case NCMesh, ACMesh:
		return meshCtx(ctx, fg, c, sel, algo, s, cache, pool)
	case NCLMST, ACLMST:
		return lmstCtx(ctx, fg, c, sel, algo, KeepUnion, s, cache, pool)
	case GMST:
		return globalMSTCtx(ctx, fg, c, sel, s, pool)
	default:
		panic(fmt.Sprintf("gateway: unknown algorithm %d", int(algo)))
	}
}

// shortestPaths computes the deterministic shortest path of every pair:
// the pairs are grouped by source head, and each group shares one
// early-exiting BFS (FlatGraph.ShortestPathsFrom) whose min-ID back-walks
// yield exactly Graph.ShortestPath's per-pair paths. Cached pairs
// (stored canonically, smaller head first) are reused instead. Groups
// shard across pool's workers; each writes only its own slots of the
// result, so the path set cannot depend on scheduling.
func shortestPaths(ctx context.Context, fg *graph.FlatGraph, pairs [][2]int, s *graph.Scratch, cache map[[2]int][]int, pool *partition.Pool) ([][]int, error) {
	out := make([][]int, len(pairs))
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pairs[order[a]][0] < pairs[order[b]][0] })
	var groups [][2]int // half-open ranges into order, one per source
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && pairs[order[hi]][0] == pairs[order[lo]][0] {
			hi++
		}
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}
	doGroup := func(bs *graph.Scratch, gr [2]int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		src := pairs[order[gr[0]]][0]
		var dsts, slots []int
		for _, i := range order[gr[0]:gr[1]] {
			if p, ok := cache[canon(pairs[i][0], pairs[i][1])]; ok {
				out[i] = p
				continue
			}
			dsts = append(dsts, pairs[i][1])
			slots = append(slots, i)
		}
		if len(dsts) == 0 {
			return nil
		}
		paths := fg.ShortestPathsFrom(bs, src, dsts)
		for j, i := range slots {
			out[i] = paths[j]
		}
		return nil
	}
	err := pool.Shard(ctx, len(groups), s, func(_ int, bs *graph.Scratch, r partition.Range) error {
		for gi := r.Start; gi < r.End; gi++ {
			if err := doGroup(bs, groups[gi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pathIntact reports whether every hop of path is still an edge of g.
func pathIntact(g *graph.Graph, path []int) bool {
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			return false
		}
	}
	return len(path) > 0
}

// meshCtx marks, for every selected neighbor head pair, the
// intermediate nodes of the deterministic shortest path between the two
// heads as gateways (the mesh-based scheme: exactly one gateway path per
// pair).
func meshCtx(ctx context.Context, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, label Algorithm, s *graph.Scratch, cache map[[2]int][]int, pool *partition.Pool) (*Result, error) {
	res := newResult(label)
	pairs := sel.Pairs()
	paths, err := shortestPaths(ctx, fg, pairs, s, cache, pool)
	if err != nil {
		return nil, err
	}
	for i, pair := range pairs {
		if paths[i] == nil {
			continue // disconnected G; callers use connected instances
		}
		res.addLink(pair[0], pair[1], paths[i])
	}
	res.finish(c)
	return res, nil
}

// KeepRule selects how LMSTGA combines the per-head on-tree decisions.
type KeepRule int

const (
	// KeepUnion keeps a virtual link if *either* endpoint selected it
	// (the LMST G₀ topology; what the paper's proof of Theorem 2 uses).
	KeepUnion KeepRule = iota
	// KeepIntersection keeps a link only if *both* endpoints selected it
	// (the LMST G₀⁻ variant; still connected, fewer links). Exposed as
	// an ablation of the design choice.
	KeepIntersection
)

// String implements fmt.Stringer.
func (k KeepRule) String() string {
	if k == KeepIntersection {
		return "intersection"
	}
	return "union"
}

// LMST runs the paper's LMSTGA on the virtual graph induced by the given
// neighbor selection: each head u builds the subgraph of the virtual
// graph induced on {u} ∪ N(u), computes its (unique, totally ordered)
// local MST, and keeps the virtual links from u to its on-tree
// neighbors. Gateways are the intermediate nodes of kept links.
func LMST(g *graph.Graph, c *cluster.Clustering, sel *ncr.Selection, label Algorithm, keep KeepRule) *Result {
	res, _ := lmstCtx(context.Background(), graph.Flatten(g), c, sel, label, keep, nil, nil, nil)
	return res
}

func lmstCtx(ctx context.Context, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, label Algorithm, keep KeepRule, s *graph.Scratch, cache map[[2]int][]int, pool *partition.Pool) (*Result, error) {
	vg, paths, err := virtualGraphCtx(ctx, fg, sel, s, cache, pool)
	if err != nil {
		return nil, err
	}

	// Each head's local MST reads only its own neighborhood of the (now
	// frozen) virtual graph — the LMSTGA locality — so the per-head
	// decisions shard across the pool, each shard writing its own slots.
	verts := vg.Vertices()
	onTreeOf := make([][]int, len(verts))
	err = pool.Shard(ctx, len(verts), s, func(_ int, _ *graph.Scratch, r partition.Range) error {
		for i := r.Start; i < r.End; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			onTreeOf[i] = vg.LocalMST(verts[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// keepVotes[link] counts how many endpoints kept the link (1 or 2).
	keepVotes := make(map[[2]int]int)
	for i, u := range verts {
		for _, v := range onTreeOf[i] {
			keepVotes[canon(u, v)]++
		}
	}

	need := 1
	if keep == KeepIntersection {
		need = 2
	}
	res := newResult(label)
	for link, votes := range keepVotes {
		if votes >= need {
			res.addLink(link[0], link[1], paths[link])
		}
	}
	res.finish(c)
	return res, nil
}

// globalMSTCtx computes the centralized lower-bound baseline: the
// minimum spanning forest of the NC virtual graph sel (weight = hop
// distance, ID tiebreak), which is the MST over all head pairs (see the
// package doc), with the intermediate nodes of the tree links' paths as
// gateways.
func globalMSTCtx(ctx context.Context, fg *graph.FlatGraph, c *cluster.Clustering, sel *ncr.Selection, s *graph.Scratch, pool *partition.Pool) (*Result, error) {
	vg, paths, err := virtualGraphCtx(ctx, fg, sel, s, nil, pool)
	if err != nil {
		return nil, err
	}
	res := newResult(GMST)
	for _, e := range vg.MST() {
		link := canon(e.U, e.V)
		res.addLink(link[0], link[1], paths[link])
	}
	res.finish(c)
	return res, nil
}

// virtualGraphCtx builds the weighted virtual graph of a neighbor
// selection: vertices are clusterheads, edges are selected pairs weighted
// by the hop distance of the deterministic shortest path between the
// heads. It also returns the underlying path of each virtual link keyed
// by canonical pair.
func virtualGraphCtx(ctx context.Context, fg *graph.FlatGraph, sel *ncr.Selection, s *graph.Scratch, cache map[[2]int][]int, pool *partition.Pool) (*graph.WGraph, map[[2]int][]int, error) {
	pairs := sel.Pairs()
	pairPaths, err := shortestPaths(ctx, fg, pairs, s, cache, pool)
	if err != nil {
		return nil, nil, err
	}
	heads := make([]int, 0, len(sel.Neighbors))
	for h := range sel.Neighbors {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	edges := make([]graph.WEdge, 0, len(pairs))
	paths := make(map[[2]int][]int)
	for i, pair := range pairs {
		path := pairPaths[i]
		if path == nil {
			continue
		}
		edges = append(edges, graph.WEdge{U: pair[0], V: pair[1], Weight: len(path) - 1})
		paths[pair] = path
	}
	return graph.NewWGraph(heads, edges), paths, nil
}

func canon(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func newResult(label Algorithm) *Result {
	return &Result{Algorithm: label, Paths: make(map[[2]int][]int)}
}

func (r *Result) addLink(u, v int, path []int) {
	if path == nil {
		return
	}
	link := canon(u, v)
	if _, dup := r.Paths[link]; dup {
		return
	}
	r.Paths[link] = path
	r.Links = append(r.Links, graph.WEdge{U: link[0], V: link[1], Weight: len(path) - 1})
}

// finish derives the gateway set and CDS from the collected links.
func (r *Result) finish(c *cluster.Clustering) {
	graph.SortWEdges(r.Links)
	gw := make(map[int]bool)
	for _, path := range r.Paths {
		for _, v := range path[1 : len(path)-1] {
			if !c.IsHead(v) {
				gw[v] = true
			}
		}
	}
	r.Gateways = sortedKeys(gw)
	cds := append([]int(nil), c.Heads...)
	cds = append(cds, r.Gateways...)
	sort.Ints(cds)
	r.CDS = cds
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
