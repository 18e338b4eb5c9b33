package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/partition"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func randomConnected(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(perm[i], perm[i+1])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// checkInvariants asserts the structural guarantees of k-hop clustering:
// non-overlap (Head is a function), every member within k hops of its
// head, k-hop domination, and k-hop independence of the heads.
func checkInvariants(t *testing.T, g *graph.Graph, c *Clustering) {
	t.Helper()
	if len(c.Head) != g.N() {
		t.Fatalf("Head covers %d of %d nodes", len(c.Head), g.N())
	}
	headSet := make(map[int]bool)
	for _, h := range c.Heads {
		headSet[h] = true
		if c.Head[h] != h {
			t.Fatalf("head %d does not head itself", h)
		}
	}
	for v, h := range c.Head {
		if !headSet[h] {
			t.Fatalf("node %d joined non-head %d", v, h)
		}
		d := g.HopDist(h, v)
		if d < 0 || d > c.K {
			t.Fatalf("node %d is %d hops from head %d (k=%d)", v, d, h, c.K)
		}
		if c.DistToHead[v] != d && c.DistToHead[v] > c.K {
			t.Fatalf("node %d join distance %d out of range", v, c.DistToHead[v])
		}
	}
	// Independence: heads pairwise more than k apart.
	for _, h := range c.Heads {
		g.EachWithin(nil, h, c.K, func(v, d int) bool {
			if v != h && headSet[v] {
				t.Fatalf("heads %d and %d only %d hops apart (k=%d)", h, v, d, c.K)
			}
			return true
		})
	}
}

func TestRunOnPathK1(t *testing.T) {
	g := pathGraph(7)
	c := Run(g, Options{K: 1})
	checkInvariants(t, g, c)
	// Lowest-ID on a path: 0 wins first, capturing 1; then 2 wins,
	// capturing 3; then 4, capturing 5; then 6.
	if !reflect.DeepEqual(c.Heads, []int{0, 2, 4, 6}) {
		t.Fatalf("Heads=%v", c.Heads)
	}
}

func TestRunOnPathK2(t *testing.T) {
	g := pathGraph(7)
	c := Run(g, Options{K: 2})
	checkInvariants(t, g, c)
	if !reflect.DeepEqual(c.Heads, []int{0, 3, 6}) {
		t.Fatalf("Heads=%v", c.Heads)
	}
	// Node 5 hears head 3's declaration (2 hops) in round 2, before node
	// 6 ever declares, so it belongs to cluster 3.
	if c.Head[4] != 3 || c.Head[5] != 3 || c.Head[2] != 0 || c.Head[6] != 6 {
		t.Fatalf("membership=%v", c.Head)
	}
}

func TestRunOnStar(t *testing.T) {
	g := starGraph(10)
	c := Run(g, Options{K: 1})
	checkInvariants(t, g, c)
	if len(c.Heads) != 1 || c.Heads[0] != 0 {
		t.Fatalf("Heads=%v, want just the hub", c.Heads)
	}
	if c.NumClusters() != 1 {
		t.Fatalf("NumClusters=%d", c.NumClusters())
	}
}

func TestRunSingleNode(t *testing.T) {
	g := graph.New(1)
	c := Run(g, Options{K: 3})
	if !reflect.DeepEqual(c.Heads, []int{0}) || c.Head[0] != 0 {
		t.Fatalf("single node clustering = %+v", c)
	}
}

func TestRunLargeKSingleCluster(t *testing.T) {
	// k ≥ diameter: node 0 should own everything under lowest ID.
	g := randomConnected(40, 0.1, 5)
	ecc := slices.Max(g.BFS(0))
	c := Run(g, Options{K: ecc + 1})
	if len(c.Heads) != 1 || c.Heads[0] != 0 {
		t.Fatalf("Heads=%v", c.Heads)
	}
}

func TestRunInvalidKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	Run(pathGraph(3), Options{K: 0})
}

func TestRunInvariantsRandom(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		for seed := int64(0); seed < 10; seed++ {
			g := randomConnected(60, 0.06, seed)
			for _, aff := range []Affiliation{AffiliationID, AffiliationDistance, AffiliationSize} {
				c := Run(g, Options{K: k, Affiliation: aff})
				checkInvariants(t, g, c)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g := randomConnected(50, 0.08, 4)
	a := Run(g, Options{K: 2})
	b := Run(g, Options{K: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same input produced different clusterings")
	}
}

func TestLargerKFewerHeads(t *testing.T) {
	// The paper's Figure 7(a): more hops per cluster, fewer clusters.
	for seed := int64(0); seed < 5; seed++ {
		g := randomConnected(80, 0.05, seed)
		prev := -1
		for _, k := range []int{1, 2, 3, 4} {
			n := Run(g, Options{K: k}).NumClusters()
			if prev >= 0 && n > prev {
				t.Fatalf("seed %d: k=%d has %d heads, k-1 had %d", seed, k, n, prev)
			}
			prev = n
		}
	}
}

func TestAffiliationID(t *testing.T) {
	// Node 3 hears both head 0 and head 2 at one hop; ID rule picks 0.
	g := graph.New(5)
	g.AddEdge(0, 3)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	g.AddEdge(0, 1)
	// k=1: round 1: node 0 wins its ball {0,1,3}; node 2's ball is
	// {2,3,4}, 2 is lowest → both declare.
	c := Run(g, Options{K: 1, Affiliation: AffiliationID})
	if c.Head[3] != 0 {
		t.Fatalf("ID affiliation chose %d, want 0", c.Head[3])
	}
}

func TestAffiliationDistance(t *testing.T) {
	// With k=2, node 4 is 2 hops from head 0 and 1 hop from head 3
	// (if 3 becomes a head). Build: path 0-1-2-3-4 plus shortcut.
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	c := Run(g, Options{K: 2, Affiliation: AffiliationDistance})
	// Heads: 0 (wins {0,1,2}), 3 (wins {3,4,5} after 0..2 joined).
	if !reflect.DeepEqual(c.Heads, []int{0, 3}) {
		t.Fatalf("Heads=%v", c.Heads)
	}
	if c.Head[2] != 0 {
		t.Fatalf("node 2 joined %d", c.Head[2])
	}
	idc := Run(g, Options{K: 2, Affiliation: AffiliationID})
	if !reflect.DeepEqual(idc.Heads, c.Heads) {
		t.Fatalf("heads differ across affiliation rules: %v vs %v", idc.Heads, c.Heads)
	}
}

func TestAffiliationDistancePrefersNearest(t *testing.T) {
	// Two heads declared in the same round, one closer: distance rule
	// must pick the closer one even when the farther has a smaller ID.
	g := graph.New(7)
	// head 0's arm reaches v=4 at distance 2: 0-3-4
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	// head 1's arm reaches v=4 at distance 1 — but 1 must be k-hop
	// independent of 0, so connect them 3+ hops apart: 1-4 direct.
	g.AddEdge(1, 4)
	g.AddEdge(1, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 2)
	c := Run(g, Options{K: 2, Affiliation: AffiliationDistance})
	if c.Head[4] != 1 {
		t.Fatalf("distance affiliation: node 4 joined %d (dist %d), want 1",
			c.Head[4], c.DistToHead[4])
	}
	cid := Run(g, Options{K: 2, Affiliation: AffiliationID})
	if cid.Head[4] != 0 {
		t.Fatalf("ID affiliation: node 4 joined %d, want 0", cid.Head[4])
	}
}

func TestAffiliationSizeBalances(t *testing.T) {
	// Heads 0 and 1 declare in the same round (neither is in the other's
	// 1-hop ball). Nodes 2,3 hear only 0; node 4 hears only 1; nodes
	// 5,6,7 hear both. The size rule spreads the shared nodes; the ID
	// rule dumps them all on head 0.
	g := graph.New(8)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	for _, v := range []int{5, 6, 7} {
		g.AddEdge(0, v)
		g.AddEdge(1, v)
	}
	c := Run(g, Options{K: 1, Affiliation: AffiliationSize})
	checkInvariants(t, g, c)
	if !reflect.DeepEqual(c.Heads, []int{0, 1}) {
		t.Fatalf("Heads=%v", c.Heads)
	}
	sizes := c.ClusterSizes()
	if sizes[0] != 4 || sizes[1] != 4 {
		t.Fatalf("size rule produced unbalanced clusters: %v", sizes)
	}
	// ID rule on the same graph is maximally unbalanced.
	cid := Run(g, Options{K: 1, Affiliation: AffiliationID})
	idSizes := cid.ClusterSizes()
	if idSizes[0] != 6 || idSizes[1] != 2 {
		t.Fatalf("ID rule sizes: %v", idSizes)
	}
}

func TestHighestDegreePriority(t *testing.T) {
	// Node 5 has the highest degree and must win its neighborhood even
	// though it has a large ID.
	g := graph.New(7)
	for _, v := range []int{0, 1, 2, 3, 4, 6} {
		g.AddEdge(5, v)
	}
	g.AddEdge(0, 1)
	c := Run(g, Options{K: 1, Priority: NewHighestDegree(g)})
	if !reflect.DeepEqual(c.Heads, []int{5}) {
		t.Fatalf("Heads=%v, want [5]", c.Heads)
	}
}

func TestHighestEnergyPriority(t *testing.T) {
	// Hub with the most energy wins the whole star.
	g := starGraph(5)
	c := Run(g, Options{K: 1, Priority: NewHighestEnergy([]float64{9, 1, 1, 1, 1})})
	if !reflect.DeepEqual(c.Heads, []int{0}) {
		t.Fatalf("Heads=%v, want [0]", c.Heads)
	}
	// An energetic leaf wins only its own ball {leaf, hub}; the other
	// leaves then elect themselves in round 2.
	c = Run(g, Options{K: 1, Priority: NewHighestEnergy([]float64{1, 1, 9, 1, 1})})
	if !reflect.DeepEqual(c.Heads, []int{1, 2, 3, 4}) {
		t.Fatalf("Heads=%v, want [1 2 3 4]", c.Heads)
	}
	if c.Head[0] != 2 {
		t.Fatalf("hub joined %d, want 2", c.Head[0])
	}
}

func TestHighestEnergyOutOfRangePanics(t *testing.T) {
	p := NewHighestEnergy([]float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range energy access did not panic")
		}
	}()
	p.Rank(3)
}

func TestRankBetterTotalOrder(t *testing.T) {
	f := func(v1 float64, id1 uint8, v2 float64, id2 uint8) bool {
		a := Rank{Value: v1, ID: int(id1)}
		b := Rank{Value: v2, ID: int(id2)}
		if a == b {
			return !a.Better(b) && !b.Better(a)
		}
		return a.Better(b) != b.Better(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMembersAndSizes(t *testing.T) {
	g := pathGraph(5)
	c := Run(g, Options{K: 1})
	if got := c.Members(0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Members(0)=%v", got)
	}
	sizes := c.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.N() {
		t.Fatalf("cluster sizes sum to %d", total)
	}
}

func TestIsHead(t *testing.T) {
	g := pathGraph(4)
	c := Run(g, Options{K: 1})
	for _, h := range c.Heads {
		if !c.IsHead(h) {
			t.Fatalf("IsHead(%d)=false", h)
		}
	}
	nonHeads := 0
	for v := range c.Head {
		if !c.IsHead(v) {
			nonHeads++
		}
	}
	if nonHeads != g.N()-len(c.Heads) {
		t.Fatalf("nonHeads=%d", nonHeads)
	}
}

func TestRoundsPositive(t *testing.T) {
	g := randomConnected(30, 0.1, 2)
	c := Run(g, Options{K: 2})
	if c.Rounds < 1 {
		t.Fatalf("Rounds=%d", c.Rounds)
	}
}

func TestAffiliationString(t *testing.T) {
	cases := map[Affiliation]string{
		AffiliationID:       "id",
		AffiliationDistance: "distance",
		AffiliationSize:     "size",
		Affiliation(42):     "affiliation(42)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String()=%q, want %q", int(a), got, want)
		}
	}
}

// TestClusteringQuickPaths: property over random path lengths and k —
// on a path graph, lowest-ID clustering heads are exactly 0, k+1, ...
// spaced by one cluster diameter at a time.
func TestClusteringQuickPaths(t *testing.T) {
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%50) + 1
		k := int(rawK%4) + 1
		g := pathGraph(n)
		c := Run(g, Options{K: k})
		// expected: greedy sweep — head at position p captures
		// p..p+k; next head at p+k+1.
		var want []int
		for p := 0; p < n; p += k + 1 {
			want = append(want, p)
		}
		return reflect.DeepEqual(c.Heads, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAffiliateSingleNode(t *testing.T) {
	// Path 0-1-2-3-4-5, k=2: heads {0, 4} (say). Node 2 is 2 hops from 0
	// and 2 from 4 — the tie breaks to the lower head ID.
	g := pathGraph(6)
	if h, d, ok := Affiliate(g, nil, []int{0, 4}, 2, 2); !ok || h != 0 || d != 2 {
		t.Fatalf("Affiliate(2) = (%d, %d, %v), want (0, 2, true)", h, d, ok)
	}
	// Node 3 is nearer to 4 than to 0.
	if h, d, ok := Affiliate(g, nil, []int{0, 4}, 3, 2); !ok || h != 4 || d != 1 {
		t.Fatalf("Affiliate(3) = (%d, %d, %v), want (4, 1, true)", h, d, ok)
	}
	// Node 5 with k=1 reaches only head 4.
	if h, _, ok := Affiliate(g, nil, []int{0, 4}, 5, 1); !ok || h != 4 {
		t.Fatalf("Affiliate(5, k=1) = (%d, _, %v), want (4, true)", h, ok)
	}
	// No head within reach.
	if _, _, ok := Affiliate(g, nil, []int{0}, 5, 2); ok {
		t.Fatal("Affiliate found an out-of-reach head")
	}
	// No heads at all.
	if _, _, ok := Affiliate(g, nil, nil, 2, 2); ok {
		t.Fatal("Affiliate found a head in an empty head set")
	}
}

// equalPriority ranks every node the same: a Priority that is not a
// total order, which must surface as an error rather than as a
// clustering in which every node is a head.
type equalPriority struct{}

func (equalPriority) Rank(int) Rank { return Rank{} }

func TestRunCtxEqualRanksReturnsError(t *testing.T) {
	g := pathGraph(8)
	_, err := RunCtx(context.Background(), g, Options{K: 2, Priority: equalPriority{}}, nil)
	if err == nil {
		t.Fatal("equal ranks returned no error")
	}
	if !strings.Contains(err.Error(), "nodes 0 and 1 rank equal") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// countingPriority is LowestID that counts its calls.
type countingPriority struct{ calls int }

func (p *countingPriority) Rank(v int) Rank {
	p.calls++
	return Rank{ID: v}
}

// TestRunCtxReadsPriorityOncePerNode: a build reads each node's rank
// exactly once, serially and on a pool, however many rounds it takes.
func TestRunCtxReadsPriorityOncePerNode(t *testing.T) {
	g := randomConnected(60, 0.08, 3)
	for _, pool := range []*partition.Pool{nil, partition.NewPool(3)} {
		p := &countingPriority{}
		c, err := RunCtx(context.Background(), g, Options{K: 2, Priority: p, Pool: pool, Flat: graph.Flatten(g)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.calls != g.N() || c.Rounds < 2 {
			t.Fatalf("workers=%d: %d Rank calls over %d rounds, want %d calls", pool.Workers(), p.calls, c.Rounds, g.N())
		}
	}
}
