// Package core composes the paper's primary contribution: the complete
// connected k-hop clustering pipeline. It wires the three stages —
// k-hop clusterhead election (package cluster), neighbor clusterhead
// selection (package ncr: NC or the paper's A-NCR), and gateway selection
// (package gateway: mesh, the paper's LMSTGA, or the G-MST baseline) —
// into the five named algorithms of the evaluation. Every build composes
// through it: BuildCtx elects and then connects, and Connect runs the two
// selection stages on a clustering the caller already has.
package core

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/partition"
)

// Options configures a pipeline run.
type Options struct {
	K           int
	Algorithm   gateway.Algorithm
	Priority    cluster.Priority
	Affiliation cluster.Affiliation
	// Scratch, when non-nil, supplies the reusable per-build buffers the
	// pipeline's BFS hot loops run in. Engines pool Scratches across
	// builds so steady-state rebuilds stay near-zero-alloc.
	Scratch *Scratch
	// Pool shards every phase of the build — election rounds, neighbor
	// selection, gateway path and LMST fan-outs — across its workers; nil
	// runs each phase as one shard on Scratch's buffers, and the output is
	// bitwise identical for any worker count. Obtain one from Scratch.Par
	// so the per-worker buffers pool with the rest of the build's memory.
	Pool *partition.Pool
}

// Scratch bundles the per-build working memory of the whole pipeline:
// the clustering stage's election buffers and the BFS buffers shared by
// the ball walks, neighbor selection, and gateway path computations. Get
// one from NewScratch and reuse (or pool) it across builds; a Scratch
// serves one build at a time.
type Scratch struct {
	cluster *cluster.Scratch
	bfs     *graph.Scratch
	par     *partition.Pool
}

// NewScratch returns a Scratch whose buffers grow on first use.
func NewScratch() *Scratch {
	cs := cluster.NewScratch()
	return &Scratch{cluster: cs, bfs: cs.BFS}
}

// BFS exposes the scratch's shared BFS buffers for pipeline stages that
// run outside BuildCtx (the engine's Max-Min and distributed modes).
func (s *Scratch) BFS() *graph.Scratch { return s.bfs }

// Par returns the scratch's worker pool sized to the given worker
// count, creating it on first use; workers <= 1 returns nil, which
// Pool.Shard runs as one shard. The pool's per-worker buffers are
// retained with the Scratch, so a pooled Scratch keeps parallel
// rebuilds warm too.
func (s *Scratch) Par(workers int) *partition.Pool {
	if workers <= 1 {
		return nil
	}
	if s.par == nil {
		s.par = partition.NewPool(workers)
	} else {
		s.par.SetWorkers(workers)
	}
	return s.par
}

// Output bundles the three stages' results.
type Output struct {
	Clustering *cluster.Clustering
	Selection  *ncr.Selection
	Gateway    *gateway.Result
}

// BuildCtx runs clustering, then Connect, on g, honoring ctx
// cancellation inside every stage's hot loop.
func BuildCtx(ctx context.Context, g *graph.Graph, opt Options) (*Output, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: k must be ≥ 1, got %d", opt.K)
	}
	s := opt.Scratch
	if s == nil {
		s = NewScratch()
	}
	// One CSR snapshot per build feeds every stage's batched traversals;
	// flattening is a single O(V+E) pass, far below the cost of the walks
	// it accelerates.
	fg := graph.Flatten(g)
	c, err := cluster.RunCtx(ctx, g, cluster.Options{
		K:           opt.K,
		Priority:    opt.Priority,
		Affiliation: opt.Affiliation,
		Pool:        opt.Pool,
		Flat:        fg,
	}, s.cluster)
	if err != nil {
		return nil, err
	}
	return Connect(ctx, g, fg, c, opt.Algorithm, s.bfs, opt.Pool)
}

// Connect runs the two stages that connect an existing clustering c of
// g: neighbor clusterhead selection by algo.NeighborRule(), then gateway
// selection for algo over that selection. BuildCtx runs it after its
// election; callers that cluster otherwise (Max-Min, a clustering shared
// by several algorithms) call it directly. fg is the caller's CSR
// snapshot of g, which both stages sweep. Connect honors ctx,
// reuses s's BFS buffers (nil is valid) and shards across pool's workers
// (a nil pool runs one shard; the output is identical).
func Connect(ctx context.Context, g *graph.Graph, fg *graph.FlatGraph, c *cluster.Clustering, algo gateway.Algorithm, s *graph.Scratch, pool *partition.Pool) (*Output, error) {
	sel, err := ncr.SelectPar(ctx, g, fg, c, algo.NeighborRule(), s, pool)
	if err != nil {
		return nil, err
	}
	res, err := gateway.RunSelectedPar(ctx, g, fg, c, sel, algo, s, pool)
	if err != nil {
		return nil, err
	}
	return &Output{Clustering: c, Selection: sel, Gateway: res}, nil
}
