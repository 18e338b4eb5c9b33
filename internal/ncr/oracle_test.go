package ncr

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/partition"
	"repro/internal/udg"
)

// oracleClusterings returns seeded random unit-disk graphs — dense and
// sparse (disconnected) deployments, some with departed slots stripped
// of every edge — each clustered by the k-hop election at k ∈ {1,2,3}
// and by Max-Min at d ∈ {1,2}, whose heads may sit closer than k hops.
func oracleClusterings(t *testing.T) (gs []*graph.Graph, cs []*cluster.Clustering) {
	t.Helper()
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
		for k := 1; k <= 3; k++ {
			gs, cs = append(gs, g), append(cs, cluster.Run(g, cluster.Options{K: k}))
		}
		for d := 1; d <= 2; d++ {
			gs, cs = append(gs, g), append(cs, maxmin.Run(g, d))
		}
	}
	if !disconnected {
		t.Fatal("no disconnected input graph")
	}
	return gs, cs
}

// ncOracle is the scalar NC selection: one (2k+1)-hop ball walk per
// head, keeping the other heads it reaches.
func ncOracle(g *graph.Graph, c *cluster.Clustering) map[int][]int {
	out := make(map[int][]int, len(c.Heads))
	s := graph.NewScratch()
	for _, h := range c.Heads {
		var nbs []int
		g.EachWithin(s, h, 2*c.K+1, func(v, _ int) bool {
			if v != h && c.IsHead(v) {
				nbs = append(nbs, v)
			}
			return true
		})
		sort.Ints(nbs)
		out[h] = nbs
	}
	return out
}

// ancrOracle is A-NCR by Definition 2, per head: walk the head's k-ball
// to its members and collect the foreign head of every radio neighbor
// of a member.
func ancrOracle(g *graph.Graph, c *cluster.Clustering) map[int][]int {
	out := make(map[int][]int, len(c.Heads))
	s := graph.NewScratch()
	for _, h := range c.Heads {
		adj := map[int]bool{}
		g.EachWithin(s, h, c.K, func(v, _ int) bool {
			if c.Head[v] != h {
				return true
			}
			for _, w := range g.Neighbors(v) {
				if c.Head[w] != h {
					adj[c.Head[w]] = true
				}
			}
			return true
		})
		var nbs []int
		for u := range adj {
			nbs = append(nbs, u)
		}
		sort.Ints(nbs)
		out[h] = nbs
	}
	return out
}

// sameNeighbors reports whether two selections map the same heads to
// the same neighbor lists (nil and empty lists are the same).
func sameNeighbors(a, b map[int][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for h, nbs := range a {
		other, ok := b[h]
		if !ok || !slices.Equal(nbs, other) {
			return false
		}
	}
	return true
}

// TestSelectMatchesScalarOracle: the batched NC selection and the A-NCR
// edge scan, serial and sharded, equal the per-head ball-walk oracles.
func TestSelectMatchesScalarOracle(t *testing.T) {
	ctx := context.Background()
	pool := partition.NewPool(3)
	gs, cs := oracleClusterings(t)
	for i, g := range gs {
		c := cs[i]
		fg := graph.Flatten(g)
		for _, tc := range []struct {
			rule Rule
			want map[int][]int
		}{{RuleNC, ncOracle(g, c)}, {RuleANCR, ancrOracle(g, c)}} {
			for _, p := range []*partition.Pool{nil, pool} {
				sel, err := SelectPar(ctx, g, fg, c, tc.rule, nil, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameNeighbors(sel.Neighbors, tc.want) {
					t.Fatalf("input %d (k=%d) %v workers=%d: selection differs from the scalar oracle",
						i, c.K, tc.rule, p.Workers())
				}
			}
		}
	}
}

// ruleWuLou labels WuLou's selections; the 2.5-hop rule is a test
// reference, not one of the production rules.
const ruleWuLou = RuleANCR + 1

// WuLou is Wu and Lou's "2.5 hops coverage" rule [17], the k = 1
// ancestor that A-NCR extends and generalizes (§3.1), kept as the
// reference the sandwich tests pin A-NCR against: each clusterhead
// covers (a) every clusterhead within 2 hops, and (b) every clusterhead
// at exactly 3 hops that has a member within the head's 2-hop
// neighborhood.
//
// The paper observes that the directed cluster graph this rule induces
// is still a supergraph of the adjacent cluster graph G”, so on 1-hop
// clusterings ANCR ⊆ WuLou ⊆ NC. The rule is defined for k = 1 only;
// calling it on a clustering with K > 1 panics, mirroring the paper's
// statement that the 2.5-hop notion does not apply beyond 1-hop
// clustering.
//
// Unlike the paper's original directional formulation, the returned
// Selection is symmetrized (u selects v if either direction covers),
// because gateway selection operates on undirected virtual links; the
// original's unidirectional surplus links are exactly what A-NCR
// removes.
func WuLou(g *graph.Graph, c *cluster.Clustering) *Selection {
	if c.K != 1 {
		panic("ncr: the 2.5-hop coverage rule is defined for k = 1 only")
	}
	sel := &Selection{Rule: ruleWuLou, K: 1, Neighbors: make(map[int][]int, len(c.Heads))}
	covered := make(map[[2]int]bool)
	for _, h := range c.Heads {
		dist := g.BFS(h)
		for v, d := range dist {
			if v == h || d == graph.Unreachable || d > 3 || !c.IsHead(v) {
				continue
			}
			pair := [2]int{min(h, v), max(h, v)}
			if d <= 2 {
				covered[pair] = true
				continue
			}
			// At 3 hops, covered only if cluster v has a member within 2
			// hops of h.
			for w, dw := range dist {
				if dw != graph.Unreachable && dw <= 2 && c.Head[w] == v {
					covered[pair] = true
					break
				}
			}
		}
	}
	for _, h := range c.Heads {
		sel.Neighbors[h] = nil
	}
	for pair := range covered {
		sel.Neighbors[pair[0]] = append(sel.Neighbors[pair[0]], pair[1])
		sel.Neighbors[pair[1]] = append(sel.Neighbors[pair[1]], pair[0])
	}
	for h := range sel.Neighbors {
		sort.Ints(sel.Neighbors[h])
	}
	return sel
}
