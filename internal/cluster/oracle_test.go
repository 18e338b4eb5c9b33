package cluster

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/udg"
)

// oracleGraphs returns the seeded random unit-disk graphs the scalar
// oracle differentials run on: dense and sparse deployments (the sparse
// ones are disconnected), some with departed slots — vertices stripped
// of every edge, as churn leaves them.
func oracleGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	disconnected := false
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, err := udg.Generate(udg.Config{N: 160, AvgDegree: []float64{3, 8}[seed%2]}, rng)
		if err != nil {
			t.Fatal(err)
		}
		g := net.G
		if seed > 2 {
			for i := 0; i < 6; i++ {
				g.RemoveVertexEdges(rng.Intn(g.N()))
			}
		}
		disconnected = disconnected || !g.Connected()
		out = append(out, g)
	}
	if !disconnected {
		t.Fatal("no disconnected input graph")
	}
	return out
}

// declares is the scalar oracle of the declaration steps: it reports
// whether undecided node u wins its k-hop ball this round — no other
// undecided node within k hops ranks better — by one ball walk on the
// adjacency lists, which passes through decided nodes.
func declares(g *graph.Graph, bs *graph.Scratch, prio Priority, head []int, u, k int) bool {
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

// collectOffers is the scalar oracle of offerBlocks: one k-hop ball walk
// per declared head h, appending an offer for every still-undecided
// node within k hops.
func collectOffers(g *graph.Graph, bs *graph.Scratch, head []int, h, k int, out *[]offer) {
	g.EachWithin(bs, h, k, func(v, d int) bool {
		if v != h && head[v] == undecided {
			*out = append(*out, offer{node: int32(v), head: int32(h), dist: int32(d)})
		}
		return true
	})
}

// sortJoin is the reference of joinAll: a comparison sort of the offers
// by (node, head), then one pick per node in ascending node order, with
// the cluster sizes recounted from head.
func sortJoin(offers []offer, head, dist []int, rule Affiliation) {
	offers = slices.Clone(offers)
	slices.SortFunc(offers, func(a, b offer) int {
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		return cmp.Compare(a.head, b.head)
	})
	sizes := make([]int32, len(head))
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
		head[choice.node] = int(choice.head)
		dist[choice.node] = int(choice.dist)
		sizes[choice.head]++
		i = j
	}
}

// refRound is one scalar reference round on (head, dist): a declares
// walk per undecided node, the heads marked, a collectOffers walk per
// head, and sortJoin. It returns the declared heads and the offers.
func refRound(g *graph.Graph, bs *graph.Scratch, prio Priority, head, dist []int, k int, rule Affiliation) ([]int, []offer) {
	var declared []int
	for u := range head {
		if head[u] == undecided && declares(g, bs, prio, head, u, k) {
			declared = append(declared, u)
		}
	}
	for _, h := range declared {
		head[h], dist[h] = h, 0
	}
	var offers []offer
	for _, h := range declared {
		collectOffers(g, bs, head, h, k, &offers)
	}
	sortJoin(offers, head, dist, rule)
	return declared, offers
}

// referenceElection is the scalar election RunCtx must reproduce:
// refRound until every node has joined.
func referenceElection(g *graph.Graph, opt Options) *Clustering {
	prio := opt.Priority
	if prio == nil {
		prio = LowestID{}
	}
	n := g.N()
	c := &Clustering{K: opt.K, Head: make([]int, n), Heads: []int{}, DistToHead: make([]int, n)}
	for v := range c.Head {
		c.Head[v] = undecided
	}
	bs := graph.NewScratch()
	for slices.Contains(c.Head, undecided) {
		c.Rounds++
		refRound(g, bs, prio, c.Head, c.DistToHead, opt.K, opt.Affiliation)
	}
	for v, h := range c.Head {
		if h == v {
			c.Heads = append(c.Heads, v)
		}
	}
	return c
}

// sortedOffers returns a sorted copy of offers, the canonical form of
// the multiset.
func sortedOffers(offers []offer) []offer {
	out := slices.Clone(offers)
	slices.SortFunc(out, func(a, b offer) int {
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		if c := cmp.Compare(a.head, b.head); c != 0 {
			return c
		}
		return cmp.Compare(a.dist, b.dist)
	})
	return out
}

// replayElection runs RunCtx's rounds one at a time beside refRound and
// checks, every round, the declared heads, the offer multiset (sharded
// as opt.Pool shards it, and as one unsharded offerBlocks call) and the
// joins; then that RunCtx ends where the replay did.
func replayElection(t *testing.T, name string, g *graph.Graph, opt Options) {
	t.Helper()
	ctx := context.Background()
	prio := opt.Priority
	if prio == nil {
		prio = LowestID{}
	}
	opt.Flat = graph.Flatten(g)
	n := g.N()
	s, bs := NewScratch(), graph.NewScratch()
	if err := s.begin(prio, n); err != nil {
		t.Fatal(err)
	}
	head, dist := make([]int, n), make([]int, n)
	for v := range head {
		head[v] = undecided
	}
	refHead, refDist := slices.Clone(head), slices.Clone(dist)
	rounds := 0
	for len(s.undec) > 0 {
		rounds++
		before := slices.Clone(refHead)
		wantDecl, wantOffers := refRound(g, bs, prio, refHead, refDist, opt.K, opt.Affiliation)
		wantOffers = sortedOffers(wantOffers)
		declared, err := s.round(ctx, opt, head, dist)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(declared, wantDecl) {
			t.Fatalf("%s round %d: declared %v, scalar walks declare %v", name, rounds, declared, wantDecl)
		}
		if got := sortedOffers(s.offers); !slices.Equal(got, wantOffers) {
			t.Fatalf("%s round %d: offers differ from the scalar walks (%d vs %d)", name, rounds, len(got), len(wantOffers))
		}
		for _, h := range wantDecl {
			before[h] = h
		}
		var flat []offer
		if err := offerBlocks(ctx, opt.Flat, bs, before, wantDecl, opt.K, &flat); err != nil {
			t.Fatal(err)
		}
		if got := sortedOffers(flat); !slices.Equal(got, wantOffers) {
			t.Fatalf("%s round %d: batched offers differ from the scalar walks (%d vs %d)", name, rounds, len(got), len(wantOffers))
		}
		if !slices.Equal(head, refHead) || !slices.Equal(dist, refDist) {
			t.Fatalf("%s round %d: joins differ from the sort-based reference", name, rounds)
		}
	}
	if slices.Contains(refHead, undecided) {
		t.Fatalf("%s: the reference election has undecided nodes after %d rounds", name, rounds)
	}
	c, err := RunCtx(ctx, g, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Head, head) || !slices.Equal(c.DistToHead, dist) || c.Rounds != rounds {
		t.Fatalf("%s: replayed election ended elsewhere than RunCtx", name)
	}
}

// TestDeclarationsMatchScalarOracle replays k ∈ {1,2,3} elections under
// every built-in priority — HighestEnergy with tied energy values, so
// the ID tie-break decides — serially and on a 3-worker pool, and
// checks each round's declared heads against the scalar ball walks.
func TestDeclarationsMatchScalarOracle(t *testing.T) {
	pool := partition.NewPool(3)
	for gi, g := range oracleGraphs(t) {
		rng := rand.New(rand.NewSource(int64(gi)))
		energy := make([]float64, g.N())
		for v := range energy {
			energy[v] = float64(rng.Intn(3))
		}
		prios := map[string]Priority{
			"lowest-id":      LowestID{},
			"highest-degree": NewHighestDegree(g),
			"highest-energy": NewHighestEnergy(energy),
		}
		for pname, prio := range prios {
			for k := 1; k <= 3; k++ {
				for _, p := range []*partition.Pool{nil, pool} {
					name := fmt.Sprintf("graph %d %s k=%d workers=%d", gi, pname, k, p.Workers())
					replayElection(t, name, g, Options{K: k, Priority: prio, Pool: p})
				}
			}
		}
	}
}

// TestOfferBlocksMatchScalarOracle replays k ∈ {1,2,3} elections under
// every affiliation rule, serially and on a 3-worker pool, and checks
// each round's offer multiset against the scalar per-head walks and its
// joins against the sort-based join they replaced.
func TestOfferBlocksMatchScalarOracle(t *testing.T) {
	pool := partition.NewPool(3)
	for gi, g := range oracleGraphs(t) {
		for _, rule := range []Affiliation{AffiliationID, AffiliationDistance, AffiliationSize} {
			for k := 1; k <= 3; k++ {
				for _, p := range []*partition.Pool{nil, pool} {
					name := fmt.Sprintf("graph %d %s k=%d workers=%d", gi, rule, k, p.Workers())
					replayElection(t, name, g, Options{K: k, Affiliation: rule, Pool: p})
				}
			}
		}
	}
}
