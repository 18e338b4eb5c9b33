package broadcast

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

func testScene(t testing.TB, n int, deg float64, k int, seed int64) (*graph.Graph, *cluster.Clustering, *gateway.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: k})
	return net.G, c, connect(t, net.G, c, gateway.ACLMST)
}

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBlindCoversConnected(t *testing.T) {
	g, _, _ := testScene(t, 80, 6, 2, 1)
	st := Blind(g, 0)
	if !st.Covered || st.Reached != g.N() {
		t.Fatalf("blind flood did not cover: %v", st)
	}
	if st.Transmissions != g.N() {
		t.Fatalf("blind flood tx=%d, want N=%d", st.Transmissions, g.N())
	}
}

func TestBlindOnPathRounds(t *testing.T) {
	g := pathGraph(6)
	st := Blind(g, 0)
	// One frontier per hop plus the last frontier's retransmission.
	if st.Rounds != 6 {
		t.Fatalf("rounds=%d", st.Rounds)
	}
}

func TestBlindDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	st := Blind(g, 0)
	if st.Covered || st.Reached != 2 {
		t.Fatalf("stats=%v", st)
	}
}

// TestPlanCoverageGuarantee is the core property: the CDS plan covers
// every node, from any source, across k values and instances.
func TestPlanCoverageGuarantee(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		for seed := int64(0); seed < 5; seed++ {
			g, c, res := testScene(t, 70, 6, k, 100*int64(k)+seed)
			plan := NewPlan(g, c, res)
			for src := 0; src < g.N(); src += 7 {
				st := plan.Run(g, src)
				if !st.Covered {
					t.Fatalf("k=%d seed=%d src=%d: only %d/%d reached",
						k, seed, src, st.Reached, g.N())
				}
			}
		}
	}
}

// TestPlanSavesTransmissions: CDS broadcast never transmits more than
// blind flooding, and on real instances saves a meaningful fraction.
func TestPlanSavesTransmissions(t *testing.T) {
	total, saved := 0.0, 0.0
	for seed := int64(0); seed < 5; seed++ {
		g, c, res := testScene(t, 100, 8, 2, 200+seed)
		blind, cds, frac := Compare(g, c, res, 0)
		if cds.Transmissions > blind.Transmissions {
			t.Fatalf("seed %d: CDS broadcast cost more than blind", seed)
		}
		if !cds.Covered {
			t.Fatalf("seed %d: CDS broadcast not covering", seed)
		}
		total++
		saved += frac
	}
	if avg := saved / total; avg < 0.20 {
		t.Fatalf("average saving only %.0f%%", 100*avg)
	}
}

// TestForwarderCountMatchesPlan: ForwarderCount equals the number of
// nodes the plan would let retransmit.
func TestForwarderCountMatchesPlan(t *testing.T) {
	g, c, res := testScene(t, 80, 6, 3, 9)
	plan := NewPlan(g, c, res)
	count := 0
	for v := 0; v < g.N(); v++ {
		if plan.Forwards(v) {
			count++
		}
	}
	if count != plan.ForwarderCount() {
		t.Fatalf("count=%d, ForwarderCount=%d", count, plan.ForwarderCount())
	}
	// The plan contains at least the CDS.
	for _, v := range res.CDS {
		if !plan.Forwards(v) {
			t.Fatalf("CDS node %d not forwarding", v)
		}
	}
}

// TestPlanForwardersWithinClusters: every non-CDS forwarder is an
// interior tree node, i.e. strictly closer than k hops to its head.
func TestPlanForwardersInterior(t *testing.T) {
	g, c, res := testScene(t, 90, 6, 3, 11)
	inCDS := make(map[int]bool)
	for _, v := range res.CDS {
		inCDS[v] = true
	}
	plan := NewPlan(g, c, res)
	for v := 0; v < g.N(); v++ {
		if plan.Forwards(v) && !inCDS[v] {
			if d := g.HopDist(c.Head[v], v); d >= c.K {
				t.Fatalf("fringe node %d (dist %d) is forwarding", v, d)
			}
		}
	}
}

// TestK1PlanIsExactlyCDS: with k=1 every member is adjacent to its head,
// so no interior tree nodes exist — the plan is exactly the CDS.
func TestK1PlanIsExactlyCDS(t *testing.T) {
	g, c, res := testScene(t, 80, 7, 1, 13)
	plan := NewPlan(g, c, res)
	if plan.ForwarderCount() != len(res.CDS) {
		t.Fatalf("k=1 plan has %d forwarders, CDS has %d", plan.ForwarderCount(), len(res.CDS))
	}
}

// TestCoverageQuick: quick-check the guarantee over random seeds.
func TestCoverageQuick(t *testing.T) {
	f := func(rawSeed uint16, rawK, rawSrc uint8) bool {
		k := int(rawK%3) + 1
		rng := rand.New(rand.NewSource(int64(rawSeed)))
		net, err := udg.Generate(udg.Config{N: 50, AvgDegree: 7, RequireConnected: true}, rng)
		if err != nil {
			return true
		}
		c := cluster.Run(net.G, cluster.Options{K: k})
		res := connect(t, net.G, c, gateway.ACLMST)
		src := int(rawSrc) % net.G.N()
		return NewPlan(net.G, c, res).Run(net.G, src).Covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Fatal("empty String")
	}
}

// connect runs core.Connect for algo on the clustering c of g.
func connect(tb testing.TB, g *graph.Graph, c *cluster.Clustering, algo gateway.Algorithm) *gateway.Result {
	tb.Helper()
	out, err := core.Connect(context.Background(), g, graph.Flatten(g), c, algo, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out.Gateway
}
