package cluster

import (
	"cmp"
	"context"
	"math/rand"
	"reflect"
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

// collectOffers is the scalar oracle of offerBlocks: one k-hop ball walk
// per declared head h, appending an offer for every still-undecided
// node within k hops.
func collectOffers(g *graph.Graph, bs *graph.Scratch, head []int, h, k int, out *[]offer) {
	const undecided = -1
	g.EachWithin(bs, h, k, func(v, d int) bool {
		if v != h && head[v] == undecided {
			*out = append(*out, offer{node: v, head: h, dist: d})
		}
		return true
	})
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

// TestOfferBlocksMatchScalarOracle replays k ∈ {1,2,3} elections round
// by round and checks that every round's batched offer multiset — serial
// and sharded across a pool — equals the scalar per-head walks'. The
// replayed election must also end where RunCtx does.
func TestOfferBlocksMatchScalarOracle(t *testing.T) {
	ctx := context.Background()
	pool := partition.NewPool(3)
	for gi, g := range oracleGraphs(t) {
		fg := graph.Flatten(g)
		n := g.N()
		for k := 1; k <= 3; k++ {
			head := make([]int, n)
			dist := make([]int, n)
			for v := range head {
				head[v] = -1
			}
			s, bs := NewScratch(), graph.NewScratch()
			opt := Options{K: k, Pool: pool, Flat: fg}
			for remaining, round := n, 1; remaining > 0; round++ {
				var declared []int
				for u := range head {
					if head[u] == -1 && declares(g, bs, LowestID{}, head, u, k) {
						declared = append(declared, u)
					}
				}
				for _, h := range declared {
					head[h], dist[h] = h, 0
					remaining--
				}
				var want []offer
				for _, h := range declared {
					collectOffers(g, bs, head, h, k, &want)
				}
				want = sortedOffers(want)
				s.offers = s.offers[:0]
				if err := offerRound(ctx, opt, s, declared, head); err != nil {
					t.Fatal(err)
				}
				if got := sortedOffers(s.offers); !slices.Equal(got, want) {
					t.Fatalf("graph %d k=%d round %d: sharded offers differ from the scalar walks (%d vs %d)",
						gi, k, round, len(got), len(want))
				}
				s.offers = s.offers[:0]
				if err := offerBlocks(ctx, fg, bs, head, declared, k, &s.offers); err != nil {
					t.Fatal(err)
				}
				if got := sortedOffers(s.offers); !slices.Equal(got, want) {
					t.Fatalf("graph %d k=%d round %d: batched offers differ from the scalar walks (%d vs %d)",
						gi, k, round, len(got), len(want))
				}
				joinAll(s, head, dist, AffiliationID, &remaining)
			}
			c := Run(g, Options{K: k})
			if !reflect.DeepEqual(c.Head, head) || !reflect.DeepEqual(c.DistToHead, dist) {
				t.Fatalf("graph %d k=%d: replayed election ended elsewhere than Run", gi, k)
			}
		}
	}
}
