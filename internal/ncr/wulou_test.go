package ncr

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// WuLou, the 2.5-hop reference, lives in oracle_test.go. Connectivity
// of its selections is exercised here via the head-pair graph, and
// through gateway selection in wulou_gateway_test.go.

func TestWuLouPanicsBeyondK1(t *testing.T) {
	g := testNet(t, 40, 6, 1)
	c := cluster.Run(g, cluster.Options{K: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("k=2 accepted by the 2.5-hop rule")
		}
	}()
	WuLou(g, c)
}

// TestWuLouSandwich: on 1-hop clusterings, ANCR ⊆ WuLou ⊆ NC — the
// paper's claim that the 2.5-hop cluster graph is a supergraph of G”
// and a subgraph of the 3-hop selection.
func TestWuLouSandwich(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := testNet(t, 70, 6, 400+seed)
		c := cluster.Run(g, cluster.Options{K: 1})
		toSet := func(s *Selection) map[[2]int]bool {
			m := make(map[[2]int]bool)
			for _, p := range s.Pairs() {
				m[p] = true
			}
			return m
		}
		ac := toSet(ANCR(g, c))
		wl := toSet(WuLou(g, c))
		nc := toSet(selectRule(t, g, c, RuleNC))
		for p := range ac {
			if !wl[p] {
				t.Fatalf("seed %d: adjacent pair %v not covered by the 2.5-hop rule", seed, p)
			}
		}
		for p := range wl {
			if !nc[p] {
				t.Fatalf("seed %d: 2.5-hop pair %v not within 3 hops", seed, p)
			}
		}
	}
}

// TestWuLouHeadPairGraphConnected: connecting each head to its 2.5-hop
// covered heads yields a connected head graph (it contains G”, which
// Theorem 1 proves connected).
func TestWuLouHeadPairGraphConnected(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := testNet(t, 80, 7, 500+seed)
		c := cluster.Run(g, cluster.Options{K: 1})
		if !headsConnected(c, WuLou(g, c).Pairs()) {
			t.Fatalf("seed %d: 2.5-hop head graph disconnected", seed)
		}
	}
}

// TestWuLouDistanceCases pins the two coverage cases on a crafted graph:
// a head 2 hops away is always covered; a head 3 hops away is covered
// iff it has a member within 2 hops.
func TestWuLouDistanceCases(t *testing.T) {
	// Heads 0 and 3 at distance 3 via 0-1-2-3, where 2 is a member of
	// cluster 3 within 2 hops of head 0 → covered.
	gA := newPath(6)
	cA := cluster.Run(gA, cluster.Options{K: 1})
	// Path of 6: heads 0, 2, 4 (lowest-ID, k=1); distances 0-2: 2 → case (a).
	selA := WuLou(gA, cA)
	if len(selA.Neighbors[0]) == 0 {
		t.Fatal("head 0 covers nobody on a path")
	}
	has := func(s *Selection, u, v int) bool {
		for _, w := range s.Neighbors[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	if !has(selA, 0, 2) {
		t.Fatal("head 2 hops away not covered")
	}
	// Case (b): heads 0 and 4 are 4 hops apart on the path → never
	// covered; heads 2 and 4 are 2 hops apart → covered.
	if has(selA, 0, 4) {
		t.Fatal("head 4 hops away covered")
	}
	if !has(selA, 2, 4) {
		t.Fatal("head 2 hops away (2↔4) not covered")
	}

	// A genuine 3-hop case: heads 0 and 5 connected by 0-1-2-5 where 2
	// is a member of 5's cluster (within 2 of head 0) → covered.
	gB := graph.New(8)
	gB.AddEdge(0, 1)
	gB.AddEdge(1, 2)
	gB.AddEdge(2, 5)
	gB.AddEdge(5, 6)
	gB.AddEdge(0, 7)
	gB.AddEdge(2, 3) // 3 pulls 2 and 3 into low-ID clusters
	gB.AddEdge(3, 4)
	cB := cluster.Run(gB, cluster.Options{K: 1})
	selB := WuLou(gB, cB)
	for _, h := range cB.Heads {
		for _, v := range selB.Neighbors[h] {
			d := gB.HopDist(h, v)
			if d < 2 || d > 3 {
				t.Fatalf("covered pair (%d,%d) at distance %d", h, v, d)
			}
		}
	}
}

func newPath(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}
