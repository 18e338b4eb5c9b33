package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"

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
	// Pool shards each election round's per-node ball walks across its
	// workers; nil (or one worker) runs the same loop as one shard on the
	// caller's goroutine. Every node's
	// declaration check reads only its own k-hop ball against the frozen
	// round state, so nodes whose balls don't intersect genuinely elect
	// concurrently, and overlapping balls read the same immutable state —
	// boundary conflicts resolve exactly as they do serially, by priority
	// in the next round. The clustering is bitwise identical to a serial
	// run. Priority.Rank must be safe for concurrent use (the built-in
	// priorities are).
	Pool *partition.Pool
	// Flat is the CSR snapshot of g the per-head offer walks of each
	// affiliation phase run on, as multi-source batched BFS (64 declared
	// heads per frontier sweep). Nil means RunCtx flattens g itself;
	// callers that run several stages on one graph pass a shared
	// snapshot instead.
	Flat *graph.FlatGraph
}

// Scratch holds the reusable working memory of a clustering run: the
// BFS buffers the k-hop ball walks use, the flat per-round offer list,
// and the per-head size counters of AffiliationSize. A warm Scratch lets
// repeated runs on same-sized graphs elect without allocating in the hot
// loops; a nil Scratch (or nil fields) falls back to fresh buffers.
type Scratch struct {
	BFS    *graph.Scratch
	offers []offer
	sizes  []int
	// Per-shard output buffers of the sharded round phases, reused across
	// rounds and builds so a warm run allocates no round lists.
	shardDeclared [][]int
	shardOffers   [][]offer
}

// NewScratch returns a Scratch whose buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{BFS: graph.NewScratch()} }

// Run executes the iterative k-hop clustering algorithm on g. It is
// RunCtx without cancellation or buffer reuse; k < 1 panics.
func Run(g *graph.Graph, opt Options) *Clustering {
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
// Cancelling ctx aborts the election between per-node ball walks and
// returns the context's error. s provides reusable buffers; nil is valid.
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
	if opt.Flat == nil {
		opt.Flat = graph.Flatten(g)
	}
	n := g.N()
	const undecided = -1
	head := make([]int, n)
	distToHead := make([]int, n)
	for v := range head {
		head[v] = undecided
	}

	remaining := n
	rounds := 0
	for remaining > 0 {
		rounds++
		// Phase 1: simultaneous declarations. A node declares iff its
		// rank beats every other undecided node within its k-hop ball.
		// The round state (head) is frozen during this phase, so the
		// per-node checks are independent and shard across the pool;
		// shards merge in node-ID order, which is the serial order.
		declared, err := declareRound(ctx, g, opt, s, prio, head)
		if err != nil {
			return nil, err
		}
		if len(declared) == 0 {
			// With a totally ordered priority this cannot happen: the
			// globally best-ranked undecided node always wins its own
			// neighborhood. A custom Priority whose ranks are inconsistent
			// across calls (or otherwise non-total) can stall every node;
			// report that instead of looping forever.
			return nil, fmt.Errorf("cluster: election round %d made no progress (%d nodes undecided; Priority must induce a total order)", rounds, remaining)
		}
		// Phase 2: affiliation. Every undecided node that heard ≥ 1
		// declaration joins. Heads join themselves at distance 0.
		// Declared heads are pairwise more than k hops apart (a closer
		// pair could not both have won), so marking them before the ball
		// walks never hides one head's declaration from another.
		for _, h := range declared {
			head[h] = h
			distToHead[h] = 0
			remaining--
		}
		// The per-head offer walks only read head (all declarations are
		// already marked), so they shard too; the offer multiset is
		// identical however it is collected, and joinAll's total sort on
		// the unique (node, head) keys erases the collection order.
		if err := offerRound(ctx, opt, s, declared, head); err != nil {
			return nil, err
		}
		joinAll(s, head, distToHead, opt.Affiliation, &remaining)
	}

	heads := make([]int, 0)
	for v := range head {
		if head[v] == v {
			heads = append(heads, v)
		}
	}
	sort.Ints(heads)
	return &Clustering{
		K:          opt.K,
		Head:       head,
		Heads:      heads,
		DistToHead: distToHead,
		Rounds:     rounds,
	}, nil
}

// declares reports whether undecided node u wins its k-hop ball this
// round: no other undecided node within k hops ranks better. It reads
// head and the graph only, so concurrent calls (one scratch each) are
// safe during a declaration phase.
func declares(g *graph.Graph, bs *graph.Scratch, prio Priority, head []int, u, k int) bool {
	const undecided = -1
	ru := prio.Rank(u)
	wins := true
	g.EachWithin(bs, u, k, func(v, _ int) bool {
		if v == u || head[v] != undecided {
			return true
		}
		if prio.Rank(v).Better(ru) {
			wins = false
			return false
		}
		return true
	})
	return wins
}

// offerBlocks appends to out the offers the declared heads extend this
// round: one per (still-undecided node, head) pair within k hops. It runs
// one multi-source BFS sweep per 64-head block, checking ctx between
// sweeps. Every declared head is already marked in head (heads join
// themselves before the walks), so the undecided filter skips the heads
// themselves. The blocks are cut from the declared list in
// graph-locality order so each sweep's heads share their frontiers — the
// cheap rank blocking, since these sweeps stop at radius ≤ k and a
// ball-growing ordering walk would cost more than it saves, every round.
// The offers arrive in block order, not head order; joinAll sorts before
// consuming, so only the multiset matters.
func offerBlocks(ctx context.Context, fg *graph.FlatGraph, bs *graph.Scratch, head, declared []int, k int, out *[]offer) error {
	const undecided = -1
	if bs == nil {
		bs = graph.NewScratch()
	}
	perm := fg.RankOrder(declared)
	var block [64]int
	for base := 0; base < len(declared); base += 64 {
		if err := ctx.Err(); err != nil {
			return err
		}
		idxs := perm[base:min(base+64, len(declared))]
		for i, pi := range idxs {
			block[i] = declared[pi]
		}
		fg.MSBFS(bs.MS(), block[:len(idxs)], k, func(v, d int, mask uint64) bool {
			if head[v] != undecided {
				return true
			}
			graph.EachBit(mask, func(i int) {
				*out = append(*out, offer{node: v, head: block[i], dist: d})
			})
			return true
		})
	}
	return nil
}

// shardSlots returns w per-shard buffers from *bufs, grown as needed
// and all truncated: a round with fewer items than workers runs fewer
// shards, and a stale slot from an earlier round must not leak into
// this round's merge.
func shardSlots[T any](bufs *[][]T, w int) [][]T {
	for len(*bufs) < w {
		*bufs = append(*bufs, nil)
	}
	slots := (*bufs)[:w]
	for i := range slots {
		slots[i] = slots[i][:0]
	}
	return slots
}

// declareRound runs one declaration phase sharded across the pool (one
// shard when serial) and merges the per-shard winner lists into slot 0
// in shard (= node-ID) order, which is the serial list. The returned
// slice is scratch memory, valid until the next round.
func declareRound(ctx context.Context, g *graph.Graph, opt Options, s *Scratch, prio Priority, head []int) ([]int, error) {
	const undecided = -1
	decl := shardSlots(&s.shardDeclared, opt.Pool.Workers())
	err := opt.Pool.Shard(ctx, g.N(), s.BFS, func(shard int, bs *graph.Scratch, r partition.Range) error {
		out := decl[shard]
		for u := r.Start; u < r.End; u++ {
			if head[u] != undecided {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if declares(g, bs, prio, head, u, opt.K) {
				out = append(out, u)
			}
		}
		decl[shard] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, part := range decl[1:] {
		decl[0] = append(decl[0], part...)
	}
	return decl[0], nil
}

// offerRound collects the round's offers into s.offers, sharded over
// the declared heads (one shard when serial). Shard 0 appends to
// s.offers directly and the later shards' lists are concatenated after
// it, so a serial run copies nothing.
func offerRound(ctx context.Context, opt Options, s *Scratch, declared, head []int) error {
	offs := shardSlots(&s.shardOffers, opt.Pool.Workers())
	offs[0] = s.offers[:0]
	err := opt.Pool.Shard(ctx, len(declared), s.BFS, func(shard int, bs *graph.Scratch, r partition.Range) error {
		return offerBlocks(ctx, opt.Flat, bs, head, declared[r.Start:r.End], opt.K, &offs[shard])
	})
	s.offers = offs[0]
	if err != nil {
		return err
	}
	for _, part := range offs[1:] {
		s.offers = append(s.offers, part...)
	}
	return nil
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
	node, head, dist int
}

// joinAll applies the affiliation rule to every node that received
// offers, in ascending node-ID order (determinism; also what a real
// deployment converges to when joins are announced). Offers are consumed
// from the flat scratch list, grouped by node after sorting.
func joinAll(s *Scratch, head, distToHead []int, rule Affiliation, remaining *int) {
	offers := s.offers
	slices.SortFunc(offers, func(a, b offer) int {
		if a.node != b.node {
			return a.node - b.node
		}
		return a.head - b.head
	})

	// Current cluster sizes, needed by AffiliationSize. Counting heads
	// only at this point: sizes grow as joins are processed.
	n := len(head)
	if cap(s.sizes) < n {
		s.sizes = make([]int, n)
	}
	sizes := s.sizes[:n]
	clear(sizes)
	for _, h := range head {
		if h >= 0 {
			sizes[h]++
		}
	}

	for i := 0; i < len(offers); {
		j := i + 1
		for j < len(offers) && offers[j].node == offers[i].node {
			j++
		}
		choice := pick(offers[i:j], rule, sizes)
		head[choice.node] = choice.head
		distToHead[choice.node] = choice.dist
		sizes[choice.head]++
		*remaining--
		i = j
	}
}

func pick(offers []offer, rule Affiliation, sizes []int) offer {
	best := offers[0]
	for _, o := range offers[1:] {
		if betterOffer(o, best, rule, sizes) {
			best = o
		}
	}
	return best
}

func betterOffer(a, b offer, rule Affiliation, sizes []int) bool {
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
