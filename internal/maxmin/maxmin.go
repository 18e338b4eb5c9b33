// Package maxmin implements the Max-Min d-cluster formation algorithm of
// Amis, Prakash, Vuong, and Huynh (INFOCOM 2000) — reference [2] of the
// paper, cited as the k-hop *core* style alternative to the iterative
// lowest-ID k-hop clustering: it runs in exactly 2d synchronous rounds
// and elects clusterheads that may be closer than d hops to each other
// (no independence guarantee), while every node stays within d hops of
// its clusterhead.
//
// The algorithm: d rounds of Floodmax (every node repeatedly adopts the
// largest ID heard from its neighbors) followed by d rounds of Floodmin
// (smallest ID heard), with each node logging the winner of every round.
// Then each node picks its clusterhead by the three Max-Min rules:
//
//  1. if its own ID appears among its Floodmin winners, it heads itself;
//  2. otherwise, among IDs that appear in both the Floodmax and Floodmin
//     logs ("node pairs"), pick the smallest;
//  3. otherwise, pick the largest ID in the Floodmax log.
//
// The result is returned as a cluster.Clustering so the paper's gateway
// pipeline (NC/A-NCR + Mesh/LMSTGA) runs unchanged on top, enabling the
// head-to-head comparison experiment between the two clustering styles.
package maxmin

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Run executes Max-Min d-cluster formation on g, flattening it for
// RunPar. The graph should be connected; on disconnected graphs each
// component clusters itself.
//
// The returned Clustering has K = d; every node is within d hops of its
// clusterhead (Amis et al., Theorem "d-hop dominating set"), but heads
// are not k-hop independent — callers comparing against the lowest-ID
// clustering must not assert independence.
func Run(g *graph.Graph, d int) *cluster.Clustering {
	c, err := RunPar(context.Background(), g, graph.Flatten(g), d, nil, nil)
	if err != nil {
		panic(err.Error()) // Background context cannot be cancelled
	}
	return c
}

// RunPar is Run with cancellation between flood rounds, reusable BFS
// buffers (nil is valid) for the final distance-to-head pass, and each
// synchronous flood round (and the final election and distance passes)
// sharded across pool's workers. A flood round reads the previous
// round's winners and writes each node's slot exclusively — the
// synchronous-round structure *is* the partition — so the clustering is
// identical for any worker count; a nil pool (or one worker) runs the
// same loops as one shard. The floods read fg, the caller's CSR snapshot
// of g, and the distance pass runs as multi-source batched BFS on it: 64
// heads per frontier sweep, depth d.
func RunPar(ctx context.Context, g *graph.Graph, fg *graph.FlatGraph, d int, s *graph.Scratch, pool *partition.Pool) (*cluster.Clustering, error) {
	if d < 1 {
		panic(fmt.Sprintf("maxmin: d must be ≥ 1, got %d", d))
	}
	n := g.N()
	winner := make([]int, n)
	for v := range winner {
		winner[v] = v
	}
	maxLog := make([][]int, n) // per-node Floodmax winners, per round
	minLog := make([][]int, n)

	// flood runs one synchronous round: next[v] and log[v] are written
	// only by v's shard, winner is frozen for the round.
	flood := func(log [][]int, better func(a, b int) bool) error {
		next := make([]int, n)
		err := pool.Shard(ctx, n, s, func(_ int, _ *graph.Scratch, r partition.Range) error {
			for v := r.Start; v < r.End; v++ {
				best := winner[v]
				for _, u := range fg.Neighbors(v) {
					if better(winner[u], best) {
						best = winner[u]
					}
				}
				next[v] = best
				log[v] = append(log[v], best)
			}
			return nil
		})
		winner = next
		return err
	}

	// Floodmax: d synchronous rounds of "adopt the largest winner among
	// yourself and your neighbors"; then Floodmin: d rounds of "adopt
	// the smallest".
	for r := 0; r < d; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := flood(maxLog, func(a, b int) bool { return a > b }); err != nil {
			return nil, err
		}
	}
	for r := 0; r < d; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := flood(minLog, func(a, b int) bool { return a < b }); err != nil {
			return nil, err
		}
	}

	head := make([]int, n)
	err := pool.Shard(ctx, n, s, func(_ int, _ *graph.Scratch, r partition.Range) error {
		for v := r.Start; v < r.End; v++ {
			head[v] = elect(v, maxLog[v], minLog[v])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Consistency pass: every node selected by someone must head itself
	// (rule 1 guarantees this for heads that saw their own ID come back;
	// the pass also covers heads chosen via rules 2/3).
	isHead := make(map[int]bool)
	for _, h := range head {
		isHead[h] = true
	}
	for h := range isHead {
		head[h] = h
	}

	heads := make([]int, 0, len(isHead))
	for h := range isHead {
		heads = append(heads, h)
	}
	sort.Ints(heads)

	// Distance-to-head: one depth-d multi-source sweep per 64-head block
	// (blocks cut in graph-locality order), each writing only its own
	// heads' members' slots (Head is a function, so members partition
	// across heads). Every member is within d hops of its head (the flood
	// only carries IDs d hops), so the sweeps reach every member.
	distToHead := make([]int, n)
	headPerm := fg.BlockOrder(heads, d)
	err = pool.Shard(ctx, len(heads), s, func(_ int, bs *graph.Scratch, r partition.Range) error {
		var block [64]int
		for base := r.Start; base < r.End; base += 64 {
			if err := ctx.Err(); err != nil {
				return err
			}
			idxs := headPerm[base:min(base+64, r.End)]
			for i, pi := range idxs {
				block[i] = heads[pi]
			}
			fg.MSBFS(bs.MS(), block[:len(idxs)], d, func(v, dv int, mask uint64) bool {
				graph.EachBit(mask, func(i int) {
					if head[v] == block[i] {
						distToHead[v] = dv
					}
				})
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &cluster.Clustering{
		K:          d,
		Head:       head,
		Heads:      heads,
		DistToHead: distToHead,
		Rounds:     2 * d,
	}, nil
}

// elect applies the three Max-Min clusterhead selection rules.
func elect(v int, maxLog, minLog []int) int {
	// Rule 1: own ID re-appeared during Floodmin.
	for _, w := range minLog {
		if w == v {
			return v
		}
	}
	// Rule 2: smallest "node pair" (ID present in both phases' logs).
	inMax := make(map[int]bool, len(maxLog))
	for _, w := range maxLog {
		inMax[w] = true
	}
	pair := -1
	for _, w := range minLog {
		if inMax[w] && (pair == -1 || w < pair) {
			pair = w
		}
	}
	if pair >= 0 {
		return pair
	}
	// Rule 3: overall Floodmax maximum.
	best := maxLog[0]
	for _, w := range maxLog[1:] {
		if w > best {
			best = w
		}
	}
	return best
}
