package broadcast

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

// oraclePlan is the whole-graph reference for NewPlan: one full BFS per
// listed head, then every member walks its smallest-ID parent chain back
// to the head, marking each interior vertex. It costs O(heads × N) time
// and memory; NewPlan must produce exactly the same forwarding set.
func oraclePlan(g *graph.Graph, c *cluster.Clustering, res *gateway.Result) *Plan {
	p := &Plan{forward: make([]bool, g.N())}
	for _, v := range res.CDS {
		p.forward[v] = true
	}
	distFrom := make(map[int][]int, len(c.Heads))
	for _, h := range c.Heads {
		distFrom[h] = g.BFS(h)
	}
	for v, h := range c.Head {
		d := distFrom[h]
		if d == nil {
			continue // departed slot: self-headed but not a listed head
		}
		for cur := v; d[cur] > 1; {
			for _, u := range g.Neighbors(cur) {
				if d[u] == d[cur]-1 {
					p.forward[u] = true
					cur = u
					break
				}
			}
		}
	}
	for _, f := range p.forward {
		if f {
			p.size++
		}
	}
	return p
}

// assertMatchesOracle fails unless NewPlan and the whole-graph oracle
// agree on the forwarder count and on every vertex's forwarding bit.
func assertMatchesOracle(t *testing.T, label string, g *graph.Graph, c *cluster.Clustering, res *gateway.Result) {
	t.Helper()
	got, want := NewPlan(g, c, res), oraclePlan(g, c, res)
	if got.ForwarderCount() != want.ForwarderCount() {
		t.Fatalf("%s: %d forwarders, oracle has %d", label, got.ForwarderCount(), want.ForwarderCount())
	}
	for v := 0; v < g.N(); v++ {
		if got.Forwards(v) != want.Forwards(v) {
			t.Fatalf("%s: Forwards(%d)=%v, oracle %v", label, v, got.Forwards(v), want.Forwards(v))
		}
	}
}

// TestPlanMatchesOracle: the per-cluster early-exit plan is the
// whole-graph plan, for every k on connected and disconnected UDGs.
func TestPlanMatchesOracle(t *testing.T) {
	for _, connected := range []bool{true, false} {
		for k := 1; k <= 4; k++ {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(1000*int64(k) + seed))
				net, err := udg.Generate(udg.Config{N: 200, AvgDegree: 5, RequireConnected: connected}, rng)
				if err != nil {
					t.Fatal(err)
				}
				c := cluster.Run(net.G, cluster.Options{K: k})
				res := connect(t, net.G, c, gateway.ACLMST)
				label := fmt.Sprintf("connected=%v k=%d seed=%d", connected, k, seed)
				assertMatchesOracle(t, label, net.G, c, res)
			}
		}
	}
}

// TestPlanMemberBeyondK guards against a k-bounded shortcut: churn
// repair can leave a member on a detour longer than k hops, and its
// whole tree path must still forward. Vertex 7 is a departed slot
// (self-headed, unlisted, edge-less) and must be skipped.
func TestPlanMemberBeyondK(t *testing.T) {
	g := graph.New(8) // path 0-1-2-3-4-5-6, plus the isolated slot 7
	for i := 0; i+1 < 7; i++ {
		g.AddEdge(i, i+1)
	}
	c := &cluster.Clustering{
		K:          2,
		Head:       []int{0, 0, 0, 0, 0, 0, 0, 7},
		Heads:      []int{0},
		DistToHead: []int{0, 1, 2, 3, 4, 5, 6, 0},
	}
	res := &gateway.Result{CDS: []int{0}}
	assertMatchesOracle(t, "member 6 hops out", g, c, res)
	plan := NewPlan(g, c, res)
	for v := 0; v < g.N(); v++ {
		if want := v <= 5; plan.Forwards(v) != want {
			t.Fatalf("Forwards(%d)=%v, want %v", v, plan.Forwards(v), want)
		}
	}
}
