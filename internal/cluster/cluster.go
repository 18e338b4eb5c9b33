package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Affiliation selects which cluster a node joins when it hears more than
// one clusterhead declaration within k hops (paper §3, rules (1)–(3)).
type Affiliation int

const (
	// AffiliationID joins the clusterhead with the smallest ID.
	AffiliationID Affiliation = iota
	// AffiliationDistance joins the nearest clusterhead (hop count),
	// breaking ties by smallest head ID.
	AffiliationDistance
	// AffiliationSize balances cluster sizes: a joining node picks the
	// head whose cluster is currently smallest, ties broken by distance
	// then head ID. Nodes are processed in ID order so the rule is
	// deterministic.
	AffiliationSize
)

// String implements fmt.Stringer.
func (a Affiliation) String() string {
	switch a {
	case AffiliationID:
		return "id"
	case AffiliationDistance:
		return "distance"
	case AffiliationSize:
		return "size"
	default:
		return fmt.Sprintf("affiliation(%d)", int(a))
	}
}

// Clustering is the output of the k-hop clustering algorithm.
type Clustering struct {
	K int
	// Head[v] is the clusterhead of v's cluster (Head[h] == h for heads).
	Head []int
	// Heads lists all clusterheads in ascending ID order.
	Heads []int
	// DistToHead[v] is the hop distance (in G) from v to Head[v].
	DistToHead []int
	// Rounds is how many election rounds the iterative algorithm took.
	Rounds int
}

// IsHead reports whether v is a clusterhead.
func (c *Clustering) IsHead(v int) bool { return c.Head[v] == v }

// NumClusters returns the number of clusters (= clusterheads).
func (c *Clustering) NumClusters() int { return len(c.Heads) }

// Members returns the sorted members of head's cluster, head included.
func (c *Clustering) Members(head int) []int {
	var out []int
	for v, h := range c.Head {
		if h == head {
			out = append(out, v)
		}
	}
	return out
}

// ClusterSizes maps each head to its cluster size (head included).
func (c *Clustering) ClusterSizes() map[int]int {
	sizes := make(map[int]int, len(c.Heads))
	for _, h := range c.Head {
		sizes[h]++
	}
	return sizes
}

// Options configures a clustering run.
type Options struct {
	K           int         // cluster radius in hops (k ≥ 1)
	Priority    Priority    // election priority; nil means LowestID
	Affiliation Affiliation // member affiliation rule
	// Pool shards each declaration step's frontier and each round's
	// offer sweeps across its workers; nil (or one worker) runs the same
	// loops as one shard on the caller's goroutine. A push step lowers
	// every reached slot with an atomic min, whose result does not depend
	// on the order the workers apply it in, the last step only reads, and
	// the offers are bucketed by node before any join reads them, so the
	// clustering is bitwise identical to a serial run.
	Pool *partition.Pool
	// Flat is the CSR snapshot of g that the declaration relaxation and
	// the per-head offer sweeps (multi-source batched BFS, 64 declared
	// heads per frontier sweep) run on. RunCtx requires it: callers own
	// the snapshot and share it with the stages that follow.
	Flat *graph.FlatGraph
}

// noPos marks a relaxation slot no undecided node has reached.
const noPos = math.MaxInt32

// Scratch holds the reusable working memory of a clustering run: the
// election positions, the relaxation slots and frontiers of the
// declaration steps, the BFS buffers of the offer sweeps, the per-round
// offer list and its per-node buckets, and the cluster-size counters of
// AffiliationSize. A warm Scratch lets repeated runs on same-sized
// graphs elect without allocating in the hot loops; a nil Scratch (or
// nil fields) falls back to fresh buffers.
type Scratch struct {
	BFS *graph.Scratch
	// pos[v] is v's place in the election order: lower wins.
	pos   []int32
	slots []relaxSlot
	// undec lists the undecided nodes in ascending ID order; front holds
	// every node a round's steps lowered, each step's frontier a suffix.
	undec    []int32
	front    []int32
	declared []int
	offers   []offer
	// byNode holds the round's offers bucketed by node; bucket[v] is
	// zero between rounds and a cursor into byNode during joinAll.
	byNode []offer
	bucket []int32
	sizes  []int32
	// Per-shard output buffers of the sharded phases, reused across
	// rounds and builds so a warm run allocates no round lists.
	shardFront    [][]int32
	shardDeclared [][]int
	shardOffers   [][]offer
}

// relaxSlot is one node's state in the declaration steps: cur is the
// lowest position within reach after the last step, nxt the value the
// running step lowers. Both hold noPos outside a round's touched slots.
// They share a cache line, as a push reads both. While a step runs, nxt
// is accessed only atomically and cur is read-only; between steps the
// coordinating goroutine reads and writes both plainly, so resetting a
// slot costs a plain store rather than a locked one.
type relaxSlot struct {
	cur, nxt int32
}

// rankedNode is one node's rank in the snapshot begin sorts.
type rankedNode struct {
	rank Rank
	v    int32
}

// NewScratch returns a Scratch whose buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{BFS: graph.NewScratch()} }

// Run executes the iterative k-hop clustering algorithm on g. It is
// RunCtx on a fresh snapshot of g (opt.Flat is replaced), without
// cancellation or buffer reuse; k < 1 panics.
func Run(g *graph.Graph, opt Options) *Clustering {
	opt.Flat = graph.Flatten(g)
	c, err := RunCtx(context.Background(), g, opt, nil)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// RunCtx executes the iterative k-hop clustering algorithm on g.
//
// Each round, every undecided node that holds the best priority among the
// undecided nodes within its k-hop neighborhood (distances in G) declares
// itself clusterhead; then every undecided node that heard at least one
// declaration within k hops joins a cluster per the affiliation rule.
// Rounds repeat until every node has joined. The graph must be connected
// for the usual dominating/independent-set guarantees, but RunCtx itself
// also works per component.
//
// The priority is read once per node: RunCtx sorts the ranks into dense
// positions, and two nodes that rank equal are an error, since the
// election needs a total order. A round's declarations are the paper's
// k-hop flood of the best rank, run as k Jacobi steps of "lowest
// position within reach" over the CSR snapshot; decided nodes relay, as
// they do in the network.
//
// Cancelling ctx aborts the election between declaration steps and
// offer sweeps and returns the context's error. s provides reusable
// buffers; nil is valid.
func RunCtx(ctx context.Context, g *graph.Graph, opt Options, s *Scratch) (*Clustering, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("cluster: k must be ≥ 1, got %d", opt.K)
	}
	if s == nil {
		s = NewScratch()
	}
	prio := opt.Priority
	if prio == nil {
		prio = LowestID{}
	}
	n := g.N()
	if err := s.begin(prio, n); err != nil {
		return nil, err
	}
	head := make([]int, n)
	distToHead := make([]int, n)
	for v := range head {
		head[v] = undecided
	}
	rounds := 0
	for len(s.undec) > 0 {
		rounds++
		if _, err := s.round(ctx, opt, head, distToHead); err != nil {
			return nil, err
		}
	}

	heads := make([]int, 0)
	for v := range head {
		if head[v] == v {
			heads = append(heads, v)
		}
	}
	return &Clustering{
		K:          opt.K,
		Head:       head,
		Heads:      heads,
		DistToHead: distToHead,
		Rounds:     rounds,
	}, nil
}

// undecided is the head of a node that has not joined a cluster yet.
const undecided = -1

// begin readies s for an election over n nodes ranked by prio: the rank
// snapshot sorted into positions, every node undecided, every
// relaxation slot empty and every counter zero. It reports the first
// two nodes (in rank order) that prio does not rank strictly apart.
//
// The sorted snapshot is dropped once pos is set rather than kept with
// the scratch, as it is the largest per-node buffer of a run and no
// round reads it.
func (s *Scratch) begin(prio Priority, n int) error {
	ranked := make([]rankedNode, n)
	for v := range ranked {
		ranked[v] = rankedNode{rank: prio.Rank(v), v: int32(v)}
	}
	slices.SortFunc(ranked, func(a, b rankedNode) int {
		if c := cmp.Compare(a.rank.Value, b.rank.Value); c != 0 {
			return c
		}
		if c := cmp.Compare(a.rank.ID, b.rank.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	s.pos = resize(s.pos, n)
	for i, r := range ranked {
		if i > 0 && !ranked[i-1].rank.Better(r.rank) {
			return fmt.Errorf("cluster: nodes %d and %d rank equal (%v, %v); Priority must induce a total order",
				ranked[i-1].v, r.v, ranked[i-1].rank, r.rank)
		}
		s.pos[r.v] = int32(i)
	}
	s.undec = s.undec[:0]
	for v := 0; v < n; v++ {
		s.undec = append(s.undec, int32(v))
	}
	s.slots = resize(s.slots, n)
	for v := range s.slots {
		s.slots[v] = relaxSlot{cur: noPos, nxt: noPos}
	}
	s.bucket = resize(s.bucket, n)
	clear(s.bucket)
	s.sizes = resize(s.sizes, n)
	clear(s.sizes)
	return nil
}

// resize returns buf with length n, reallocated only when too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// round runs one election round over s.undec and drops the nodes it
// decides from that list: the declarations, the heads' offers (left in
// s.offers) and the joins. It returns the declared heads, ascending;
// the slice is scratch memory, valid until the next round.
func (s *Scratch) round(ctx context.Context, opt Options, head, distToHead []int) ([]int, error) {
	declared, err := s.declare(ctx, opt)
	if err != nil {
		return nil, err
	}
	// Heads join themselves at distance 0. Declared heads are pairwise
	// more than k hops apart (a closer pair could not both have won), so
	// marking them before the offer sweeps never hides one head's
	// declaration from another.
	for _, h := range declared {
		head[h] = h
		distToHead[h] = 0
		s.sizes[h]++
	}
	if err := offerRound(ctx, opt, s, declared, head); err != nil {
		return nil, err
	}
	joinAll(s, head, distToHead, opt.Affiliation)
	keep := s.undec[:0]
	for _, v := range s.undec {
		if head[v] == undecided {
			keep = append(keep, v)
		}
	}
	s.undec = keep
	return declared, nil
}

// declare returns the undecided nodes that hold the lowest position
// among the undecided nodes within k hops, ascending. It runs k Jacobi
// steps of min-relaxation from the undecided nodes: k−1 push steps
// from the nodes whose minimum dropped in the previous step, then the
// k-th step evaluated only where a declaration is read — each
// undecided node takes the minimum of its own and its neighbors'
// values, and stops at the first one below its own position. Since hop
// distance is symmetric, u's minimum after k steps is pos[u] exactly
// when no better undecided node lies within k hops of u. The touched
// slots are reset before it returns.
func (s *Scratch) declare(ctx context.Context, opt Options) ([]int, error) {
	for _, u := range s.undec {
		s.slots[u] = relaxSlot{cur: s.pos[u], nxt: s.pos[u]}
	}
	s.front = s.front[:0]
	front := s.undec
	var err error
	for step := 1; step < opt.K && len(front) > 0 && err == nil; step++ {
		from := len(s.front)
		err = s.relax(ctx, opt, front)
		front = s.front[from:]
		for _, w := range front {
			s.slots[w].cur = s.slots[w].nxt
		}
	}
	if err == nil {
		err = s.winners(ctx, opt)
	}
	for _, vs := range [][]int32{s.undec, s.front} {
		for _, v := range vs {
			s.slots[v] = relaxSlot{cur: noPos, nxt: noPos}
		}
	}
	if err != nil {
		return nil, err
	}
	return s.declared, nil
}

// winners runs the last declaration step at the undecided nodes only,
// sharded over s.undec, and lists in s.declared, ascending, those no
// neighbor's value undercuts.
func (s *Scratch) winners(ctx context.Context, opt Options) error {
	fg := opt.Flat
	var err error
	s.declared, err = shardAppend(ctx, opt.Pool, len(s.undec), s.BFS, &s.shardDeclared, s.declared[:0], func(_ *graph.Scratch, r partition.Range, out []int) ([]int, error) {
		slots := s.slots
	nodes:
		for _, u := range s.undec[r.Start:r.End] {
			pu := s.pos[u]
			if slots[u].cur < pu {
				continue
			}
			for _, w := range fg.Neighbors(int(u)) {
				if slots[w].cur < pu {
					continue nodes
				}
			}
			out = append(out, int(u))
		}
		return out, nil
	})
	return err
}

// relax runs one push step: every node of front pushes its minimum to
// its neighbors' nxt slots, sharded over front. A shard lists a
// neighbor, on s.front, only when its atomic min moved that slot off
// cur, which exactly one push per lowered slot does. The step reads cur
// and writes only nxt, so a value travels one hop per step whatever the
// order.
func (s *Scratch) relax(ctx context.Context, opt Options, front []int32) error {
	fg := opt.Flat
	var err error
	s.front, err = shardAppend(ctx, opt.Pool, len(front), s.BFS, &s.shardFront, s.front, func(_ *graph.Scratch, r partition.Range, out []int32) ([]int32, error) {
		slots := s.slots
		for _, u := range front[r.Start:r.End] {
			pu := slots[u].cur
			for _, w := range fg.Neighbors(int(u)) {
				sw := &slots[w]
				for old := atomic.LoadInt32(&sw.nxt); pu < old; old = atomic.LoadInt32(&sw.nxt) {
					if atomic.CompareAndSwapInt32(&sw.nxt, old, pu) {
						if old == sw.cur {
							out = append(out, w)
						}
						break
					}
				}
			}
		}
		return out, nil
	})
	return err
}

// offerBlocks appends to out the offers the declared heads extend this
// round: one per (still-undecided node, head) pair within k hops. It runs
// one multi-source BFS sweep per 64-head block, checking ctx between
// sweeps. Every declared head is already marked in head (heads join
// themselves before the walks), so the undecided filter skips the heads
// themselves. The blocks are cut from the declared list as it comes:
// one round's heads are pairwise more than k hops apart, so their
// radius-k balls barely overlap and no blocking order would give a
// block shared frontiers to save. The offers arrive in block order, not
// head order; joinAll buckets them by node, and the order within one
// node's bucket does not matter.
func offerBlocks(ctx context.Context, fg *graph.FlatGraph, bs *graph.Scratch, head, declared []int, k int, out *[]offer) error {
	if bs == nil {
		bs = graph.NewScratch()
	}
	for base := 0; base < len(declared); base += 64 {
		if err := ctx.Err(); err != nil {
			return err
		}
		block := declared[base:min(base+64, len(declared))]
		fg.MSBFS(bs.MS(), block, k, func(v, d int, mask uint64) bool {
			if head[v] != undecided {
				return true
			}
			graph.EachBit(mask, func(i int) {
				*out = append(*out, offer{node: int32(v), head: int32(block[i]), dist: int32(d)})
			})
			return true
		})
	}
	return nil
}

// shardAppend runs fn over [0, items) in Pool.Shard's shards, each
// appending to its own list, and returns dst with the lists appended
// in shard order (= item order). Shard 0 appends to dst directly and
// the others to the reusable buffers in *bufs, so a serial run copies
// nothing. Every shard checks ctx before it starts; the error is that
// of the lowest failing shard.
func shardAppend[T any](ctx context.Context, pool *partition.Pool, items int, s *graph.Scratch, bufs *[][]T, dst []T,
	fn func(bs *graph.Scratch, r partition.Range, out []T) ([]T, error)) ([]T, error) {
	for len(*bufs) < pool.Workers() {
		*bufs = append(*bufs, nil)
	}
	outs := (*bufs)[:pool.Workers()]
	for i := range outs {
		outs[i] = outs[i][:0] // a shard that does not run leaves its slot empty
	}
	outs[0] = dst
	err := pool.Shard(ctx, items, s, func(shard int, bs *graph.Scratch, r partition.Range) (err error) {
		if err = ctx.Err(); err == nil {
			outs[shard], err = fn(bs, r, outs[shard])
		}
		return err
	})
	dst = outs[0]
	for _, part := range outs[1:] {
		dst = append(dst, part...)
	}
	return dst, err
}

// offerRound collects the round's offers into s.offers, sharded over
// the declared heads (one shard when serial).
func offerRound(ctx context.Context, opt Options, s *Scratch, declared, head []int) error {
	var err error
	s.offers, err = shardAppend(ctx, opt.Pool, len(declared), s.BFS, &s.shardOffers, s.offers[:0], func(bs *graph.Scratch, r partition.Range, out []offer) ([]offer, error) {
		err := offerBlocks(ctx, opt.Flat, bs, head, declared[r.Start:r.End], opt.K, &out)
		return out, err
	})
	return err
}

// Affiliate re-attaches a single node to an existing clustering without
// a whole-graph election: the churn-maintenance entry point (§3.3). It
// applies the paper's affiliation rule in isolation — v joins the
// nearest head of heads reachable within k hops in g, ties broken by
// lowest head ID — and reports ok=false when no head is in reach, in
// which case the caller promotes v to a head of its own (the Join
// repair's second branch). heads must not contain v itself. s provides
// reusable BFS buffers; nil is valid. The walk visits nodes in
// nondecreasing distance, so it stops one layer past the first hit.
func Affiliate(g *graph.Graph, s *graph.Scratch, heads []int, v, k int) (head, dist int, ok bool) {
	headSet := make(map[int]bool, len(heads))
	for _, h := range heads {
		headSet[h] = true
	}
	return AffiliateIn(g, s, headSet, v, k)
}

// AffiliateIn is Affiliate with the candidate head set prebuilt, for
// callers that re-affiliate many nodes against the same heads (the
// churn repair loop) and should not rebuild the set per node. The walk
// visits nodes in nondecreasing distance, so it stops one layer past
// the first hit.
func AffiliateIn(g *graph.Graph, s *graph.Scratch, heads map[int]bool, v, k int) (head, dist int, ok bool) {
	head, dist = -1, k+1
	g.EachWithin(s, v, k, func(w, d int) bool {
		if head != -1 && d > dist {
			return false
		}
		if heads[w] && (head == -1 || d < dist || (d == dist && w < head)) {
			head, dist = w, d
		}
		return true
	})
	return head, dist, head >= 0
}

type offer struct {
	node, head, dist int32
}

// joinAll applies the affiliation rule to every node that received
// offers, in ascending node-ID order (determinism; also what a real
// deployment converges to when joins are announced). Every offered node
// is on s.undec, which is ascending, so one counting pass over it
// buckets s.offers by node into s.byNode in the order the joins consume
// them. A node's bucket keeps arrival order, which does not matter:
// betterOffer strictly orders the node's distinct heads.
func joinAll(s *Scratch, head, distToHead []int, rule Affiliation) {
	bucket := s.bucket
	for _, o := range s.offers {
		bucket[o.node]++
	}
	var at int32
	for _, v := range s.undec {
		c := bucket[v]
		bucket[v] = at
		at += c
	}
	s.byNode = resize(s.byNode, len(s.offers))
	for _, o := range s.offers {
		s.byNode[bucket[o.node]] = o
		bucket[o.node]++
	}
	var lo int32
	for _, v := range s.undec {
		hi := bucket[v]
		bucket[v] = 0
		if hi == lo {
			continue
		}
		choice := pick(s.byNode[lo:hi], rule, s.sizes)
		head[v] = int(choice.head)
		distToHead[v] = int(choice.dist)
		s.sizes[choice.head]++
		lo = hi
	}
}

func pick(offers []offer, rule Affiliation, sizes []int32) offer {
	best := offers[0]
	for _, o := range offers[1:] {
		if betterOffer(o, best, rule, sizes) {
			best = o
		}
	}
	return best
}

func betterOffer(a, b offer, rule Affiliation, sizes []int32) bool {
	switch rule {
	case AffiliationDistance:
		if a.dist != b.dist {
			return a.dist < b.dist
		}
	case AffiliationSize:
		if sizes[a.head] != sizes[b.head] {
			return sizes[a.head] < sizes[b.head]
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
	}
	return a.head < b.head
}
