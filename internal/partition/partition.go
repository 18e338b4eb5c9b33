// Package partition shards the pipeline's per-node, per-head, and
// per-pair loops across a worker pool while keeping results bitwise
// identical to serial execution.
//
// The paper's construction is inherently local — every decision reads
// only a bounded ball around one node — so a build phase is a loop of
// independent read-only walks whose outputs merge deterministically.
// partition exploits exactly that: work items are split into contiguous
// index ranges (one per worker), each worker runs its range with its own
// reusable BFS scratch, and the caller merges the per-shard outputs in
// shard order, which is index order, which is the serial order. No
// locks, no channels, no reordering: a shard owns its slice of the
// output, so the merged result cannot depend on goroutine scheduling.
// A serial run is the same loop with one shard; callers have no
// separate serial code path.
package partition

import (
	"context"
	"runtime"

	"repro/internal/graph"
)

// Range is a half-open interval [Start, End) of work-item indices.
type Range struct {
	Start, End int
}

// Len returns the number of items in the range.
func (r Range) Len() int { return r.End - r.Start }

// Ranges splits [0, n) into at most parts contiguous ranges of
// near-equal length (the first n%parts ranges are one longer). Fewer
// ranges are returned when n < parts; n == 0 returns none.
func Ranges(n, parts int) []Range {
	if parts > n {
		parts = n
	}
	if parts <= 0 {
		return nil
	}
	out := make([]Range, parts)
	base, extra := n/parts, n%parts
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Start: start, End: start + size}
		start += size
	}
	return out
}

// Pool is a reusable set of per-worker BFS scratches plus the worker
// count build phases shard across. A Pool serves one build at a time
// (engines keep one per in-flight build, exactly like the serial
// scratch); a nil or zero Pool runs everything as one shard.
//
// Scratches are lazily created and kept warm across phases and builds,
// so steady-state parallel rebuilds allocate no traversal buffers —
// the per-worker analogue of graph.Scratch pooling.
type Pool struct {
	workers int
	scratch []*graph.Scratch
}

// NewPool returns a Pool with the given worker count; n <= 0 means
// runtime.GOMAXPROCS(0).
func NewPool(n int) *Pool {
	p := &Pool{}
	p.SetWorkers(n)
	return p
}

// SetWorkers resizes the worker count (existing scratches are kept).
func (p *Pool) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p.workers = n
}

// Workers returns the worker count; a nil Pool is serial (1).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Scratch returns worker w's reusable BFS scratch, creating it on first
// use. Each shard of a Shard call owns exactly one worker index, so two
// goroutines never share a scratch.
func (p *Pool) Scratch(w int) *graph.Scratch {
	for len(p.scratch) <= w {
		p.scratch = append(p.scratch, graph.NewScratch())
	}
	return p.scratch[w]
}

// Shard runs fn over [0, items) split into one contiguous range per
// worker: fn(shard, scratch, r) with shard counting ranges in index
// order and scratch exclusively owned by that shard for the duration of
// the call. All shards are joined before Shard returns; the error of
// the lowest-indexed failing shard is returned, so error reporting is
// as deterministic as the results. fn is responsible for honoring ctx
// per item.
//
// Serial execution is the one-shard case of the same loop: with a nil
// Pool, one worker, or at most one item, fn(0, s, Range{0, items}) runs
// inline on the caller's goroutine with the caller's scratch s, so a
// serial build keeps using its own warm buffers. A nil s gets a fresh
// scratch. Multi-shard runs use the pool's per-worker scratches.
func (p *Pool) Shard(ctx context.Context, items int, s *graph.Scratch, fn func(shard int, s *graph.Scratch, r Range) error) error {
	if items <= 0 {
		return ctx.Err()
	}
	if items == 1 || p.Workers() <= 1 {
		if s == nil {
			s = graph.NewScratch()
		}
		return fn(0, s, Range{Start: 0, End: items})
	}
	ranges := Ranges(items, p.Workers())
	errs := make([]error, len(ranges))
	done := make(chan struct{})
	for i := range ranges {
		// Materialize every scratch before the goroutines start: Scratch
		// grows the backing slice, which must not race with reads.
		s := p.Scratch(i)
		go func(i int, s *graph.Scratch) {
			defer func() { done <- struct{}{} }()
			errs[i] = fn(i, s, ranges[i])
		}(i, s)
	}
	for range ranges {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
