// Package ncr implements the neighbor clusterhead selection phase: which
// other clusterheads each clusterhead must find gateways to.
//
// Two rules are provided. NC is the classical rule (connect to every
// clusterhead within 2k+1 hops). ANCR is the paper's adjacency-based
// neighbor clusterhead selection rule (§3.1): connect only to *adjacent*
// clusterheads — heads of clusters that share at least one G-edge between
// their members (Definition 2). Theorem 1 shows the adjacent cluster
// graph G” is connected, so A-NCR preserves global connectivity while
// selecting far fewer neighbor pairs.
package ncr

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Rule identifies a neighbor clusterhead selection rule.
type Rule int

const (
	// RuleNC selects all clusterheads within 2k+1 hops ("NC" curves).
	RuleNC Rule = iota
	// RuleANCR selects only adjacent clusterheads ("AC" curves).
	RuleANCR
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RuleNC:
		return "NC"
	case RuleANCR:
		return "AC"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Selection maps every clusterhead to the sorted set of neighbor
// clusterheads it must connect to. All selections produced by this
// package are symmetric: v ∈ Neighbors[u] ⇔ u ∈ Neighbors[v].
type Selection struct {
	Rule      Rule
	K         int
	Neighbors map[int][]int
}

// Pairs returns each selected unordered head pair once, as (u, v) with
// u < v, sorted lexicographically.
func (s *Selection) Pairs() [][2]int {
	var out [][2]int
	for u, nbs := range s.Neighbors {
		for _, v := range nbs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumPairs returns the number of selected unordered head pairs.
func (s *Selection) NumPairs() int {
	total := 0
	for _, nbs := range s.Neighbors {
		total += len(nbs)
	}
	return total / 2
}

// SelectPar runs the given rule, honoring cancellation between
// neighborhood sweeps and reusing s's BFS buffers (nil is valid). The
// per-head neighborhood walks (NC) or the edge scan (A-NCR) shard across
// pool's workers; a nil pool (or one worker) runs the same loops as one
// shard, so the selection is identical for any worker count. NC runs as
// multi-source batched BFS on fg, the caller's CSR snapshot of g — one
// frontier sweep per 64-head block.
func SelectPar(ctx context.Context, g *graph.Graph, fg *graph.FlatGraph, c *cluster.Clustering, rule Rule, s *graph.Scratch, pool *partition.Pool) (*Selection, error) {
	switch rule {
	case RuleNC:
		return ncCtx(ctx, fg, c, s, pool)
	case RuleANCR:
		return ancrCtx(ctx, g, c, s, pool)
	default:
		panic(fmt.Sprintf("ncr: unknown rule %d", int(rule)))
	}
}

// ncCtx runs the NC rule, the baseline every prior scheme uses and a
// supergraph of the A-NCR selection. It collects, for every head, the
// heads it reaches within 2k+1 hops:
// one MS-BFS sweep per 64-head block. Blocks are cut from the heads in
// graph-locality order, not ID order — heads near each other share
// almost all of a sweep's expansions, which is where the batching win
// comes from. Each head's set is sorted afterwards, so the per-head
// result is independent of batching, ordering, and sharding.
func ncCtx(ctx context.Context, fg *graph.FlatGraph, c *cluster.Clustering, s *graph.Scratch, pool *partition.Pool) (*Selection, error) {
	radius := 2*c.K + 1
	perm := fg.BlockOrder(c.Heads, radius)
	nbsOf := make([][]int, len(c.Heads))
	ncRange := func(bs *graph.Scratch, lo, hi int) error {
		var block [64]int
		for base := lo; base < hi; base += 64 {
			if err := ctx.Err(); err != nil {
				return err
			}
			idxs := perm[base:min(base+64, hi)]
			for i, pi := range idxs {
				block[i] = c.Heads[pi]
			}
			fg.MSBFS(bs.MS(), block[:len(idxs)], radius, func(v, _ int, mask uint64) bool {
				if !c.IsHead(v) {
					return true
				}
				graph.EachBit(mask, func(i int) {
					if block[i] != v {
						nbsOf[idxs[i]] = append(nbsOf[idxs[i]], v)
					}
				})
				return true
			})
			for _, pi := range idxs {
				sort.Ints(nbsOf[pi])
			}
		}
		return nil
	}
	// Each head block's sweep is independent and read-only; shard the
	// head list, each shard writing its own slots of nbsOf.
	err := pool.Shard(ctx, len(c.Heads), s, func(_ int, bs *graph.Scratch, r partition.Range) error {
		return ncRange(bs, r.Start, r.End)
	})
	if err != nil {
		return nil, err
	}
	sel := &Selection{Rule: RuleNC, K: c.K, Neighbors: make(map[int][]int, len(c.Heads))}
	for i, h := range c.Heads {
		sel.Neighbors[h] = nbsOf[i]
	}
	return sel, nil
}

// ANCR selects only adjacent clusterheads: u and v are selected for each
// other iff some member of u's cluster and some member of v's cluster are
// neighbors in G (at most one of the two endpoint nodes being a head is
// fine; Definition 2). The scan over G's edges is exactly how the
// distributed rule works too — border members detect foreign neighbors
// and report the foreign head to their own head.
func ANCR(g *graph.Graph, c *cluster.Clustering) *Selection {
	sel, _ := ancrCtx(context.Background(), g, c, nil, nil)
	return sel
}

func ancrCtx(ctx context.Context, g *graph.Graph, c *cluster.Clustering, s *graph.Scratch, pool *partition.Pool) (*Selection, error) {
	sel := &Selection{Rule: RuleANCR, K: c.K, Neighbors: make(map[int][]int, len(c.Heads))}
	scanRange := func(adj map[[2]int]bool, lo, hi int) error {
		record := func(u, v int) {
			if u > v {
				return // visit each undirected edge once
			}
			hu, hv := c.Head[u], c.Head[v]
			if hu == hv {
				return
			}
			a, b := hu, hv
			if a > b {
				a, b = b, a
			}
			adj[[2]int{a, b}] = true
		}
		for u := lo; u < hi; u++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, v := range g.Neighbors(u) {
				record(u, v)
			}
		}
		return nil
	}
	// The adjacency relation is a set: shard the edge scan by node range
	// into per-shard sets and union the later ones into the first —
	// order-free, so the merged set is identical to the serial one.
	parts := make([]map[[2]int]bool, pool.Workers())
	err := pool.Shard(ctx, g.N(), s, func(shard int, _ *graph.Scratch, r partition.Range) error {
		parts[shard] = make(map[[2]int]bool)
		return scanRange(parts[shard], r.Start, r.End)
	})
	if err != nil {
		return nil, err
	}
	adj := parts[0]
	for _, part := range parts[1:] {
		for pair := range part {
			adj[pair] = true
		}
	}
	for _, h := range c.Heads {
		sel.Neighbors[h] = nil
	}
	for pair := range adj {
		sel.Neighbors[pair[0]] = append(sel.Neighbors[pair[0]], pair[1])
		sel.Neighbors[pair[1]] = append(sel.Neighbors[pair[1]], pair[0])
	}
	for h := range sel.Neighbors {
		sort.Ints(sel.Neighbors[h])
	}
	return sel, nil
}
