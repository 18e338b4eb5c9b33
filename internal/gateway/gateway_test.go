package gateway

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/udg"
)

func testInstance(t testing.TB, n int, deg float64, k int, seed int64) (*graph.Graph, *cluster.Clustering) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net.G, cluster.Run(net.G, cluster.Options{K: k})
}

// run is the full pipeline for algo on c: ncr.SelectPar by
// algo.NeighborRule() (or the given sel), then RunSelectedPar.
func run(t testing.TB, g *graph.Graph, c *cluster.Clustering, sel *ncr.Selection, algo Algorithm) *Result {
	t.Helper()
	ctx := context.Background()
	if sel == nil {
		var err error
		if sel, err = ncr.SelectPar(ctx, g, graph.Flatten(g), c, algo.NeighborRule(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunSelectedPar(ctx, g, graph.Flatten(g), c, sel, algo, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// selectNC is the NC selection of c.
func selectNC(t testing.TB, g *graph.Graph, c *cluster.Clustering) *ncr.Selection {
	t.Helper()
	sel, err := ncr.SelectPar(context.Background(), g, graph.Flatten(g), c, ncr.RuleNC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		NCMesh: "NC-Mesh", ACMesh: "AC-Mesh", NCLMST: "NC-LMST",
		ACLMST: "AC-LMST", GMST: "G-MST", Algorithm(9): "algorithm(9)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String()=%q, want %q", int(a), a.String(), s)
		}
	}
}

func TestAlgorithmNeighborRule(t *testing.T) {
	want := map[Algorithm]ncr.Rule{
		NCMesh: ncr.RuleNC, ACMesh: ncr.RuleANCR, NCLMST: ncr.RuleNC,
		ACLMST: ncr.RuleANCR, GMST: ncr.RuleNC,
	}
	if len(want) != len(Algorithms) {
		t.Fatalf("table covers %d algorithms, Algorithms lists %d", len(want), len(Algorithms))
	}
	for _, a := range Algorithms {
		if got := a.NeighborRule(); got != want[a] {
			t.Errorf("%v.NeighborRule()=%v, want %v", a, got, want[a])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm's NeighborRule did not panic")
		}
	}()
	Algorithm(42).NeighborRule()
}

func TestRunUnknownAlgorithmPanics(t *testing.T) {
	g, c := testInstance(t, 30, 6, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	run(t, g, c, nil, Algorithm(42))
}

// TestTheorem2AllAlgorithms: the heads plus selected gateways form a
// subgraph in which all clusterheads are connected — Theorem 2 for
// AC-LMST and the analogous guarantee for every other algorithm — and
// the CDS is a k-hop connected dominating set.
func TestTheorem2AllAlgorithms(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		for seed := int64(0); seed < 6; seed++ {
			g, c := testInstance(t, 70, 6, k, 300*int64(k)+seed)
			for _, algo := range Algorithms {
				res := run(t, g, c, nil, algo)
				if err := cds.CheckHeadsConnected(g, res.CDS, c.Heads); err != nil {
					t.Fatalf("k=%d seed=%d %v: %v", k, seed, algo, err)
				}
				if err := cds.CheckKHopCDS(g, res.CDS, k); err != nil {
					t.Fatalf("k=%d seed=%d %v: %v", k, seed, algo, err)
				}
			}
		}
	}
}

// TestGatewaysAreNonHeads: gateway sets never contain clusterheads, and
// CDS = heads ∪ gateways exactly.
func TestGatewaysAreNonHeads(t *testing.T) {
	g, c := testInstance(t, 80, 7, 2, 5)
	headSet := make(map[int]bool)
	for _, h := range c.Heads {
		headSet[h] = true
	}
	for _, algo := range Algorithms {
		res := run(t, g, c, nil, algo)
		for _, gw := range res.Gateways {
			if headSet[gw] {
				t.Fatalf("%v: head %d listed as gateway", algo, gw)
			}
		}
		if res.CDSSize() != len(c.Heads)+res.NumGateways() {
			t.Fatalf("%v: CDS size %d ≠ %d heads + %d gateways",
				algo, res.CDSSize(), len(c.Heads), res.NumGateways())
		}
	}
}

// TestPathsAreValid: every recorded path is a real path in G between the
// two heads of the link, with length matching the link weight.
func TestPathsAreValid(t *testing.T) {
	g, c := testInstance(t, 80, 6, 2, 9)
	for _, algo := range Algorithms {
		res := run(t, g, c, nil, algo)
		if len(res.Links) != len(res.Paths) {
			t.Fatalf("%v: %d links vs %d paths", algo, len(res.Links), len(res.Paths))
		}
		for link, path := range res.Paths {
			if path[0] != link[0] || path[len(path)-1] != link[1] {
				t.Fatalf("%v: path endpoints %v for link %v", algo, path, link)
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.HasEdge(path[i], path[i+1]) {
					t.Fatalf("%v: non-edge on path %v", algo, path)
				}
			}
			if want := g.HopDist(link[0], link[1]); len(path)-1 != want {
				t.Fatalf("%v: link %v path length %d, shortest %d", algo, link, len(path)-1, want)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	g, c := testInstance(t, 70, 6, 2, 13)
	for _, algo := range Algorithms {
		a, b := run(t, g, c, nil, algo), run(t, g, c, nil, algo)
		if !reflect.DeepEqual(a.Gateways, b.Gateways) || !reflect.DeepEqual(a.Links, b.Links) {
			t.Fatalf("%v nondeterministic", algo)
		}
	}
}

// TestLMSTLinksSubsetOfSelection: LMSTGA can only keep virtual links that
// the neighbor selection offered.
func TestLMSTLinksSubsetOfSelection(t *testing.T) {
	g, c := testInstance(t, 80, 6, 2, 17)
	sel := ncr.ANCR(g, c)
	offered := make(map[[2]int]bool)
	for _, p := range sel.Pairs() {
		offered[p] = true
	}
	res := LMST(g, c, sel, ACLMST, KeepUnion)
	for _, l := range res.Links {
		if !offered[[2]int{l.U, l.V}] {
			t.Fatalf("LMST kept unoffered link %v", l)
		}
	}
}

// TestLMSTNotWorseThanMesh: on the same selection, LMSTGA never keeps
// more links than the mesh (it prunes a subset of the mesh's pairs).
func TestLMSTPrunesMesh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, c := testInstance(t, 80, 6, 2, 500+seed)
		sel := ncr.ANCR(g, c)
		mesh := run(t, g, c, sel, ACMesh)
		lmst := LMST(g, c, sel, ACLMST, KeepUnion)
		if len(lmst.Links) > len(mesh.Links) {
			t.Fatalf("seed %d: LMST kept %d links, mesh %d", seed, len(lmst.Links), len(mesh.Links))
		}
		meshLinks := make(map[[2]int]bool)
		for _, l := range mesh.Links {
			meshLinks[[2]int{l.U, l.V}] = true
		}
		for _, l := range lmst.Links {
			if !meshLinks[[2]int{l.U, l.V}] {
				t.Fatalf("seed %d: LMST link %v not in mesh", seed, l)
			}
		}
	}
}

// TestKeepIntersectionSubsetOfUnion and still connected.
func TestKeepIntersection(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, c := testInstance(t, 80, 6, 2, 700+seed)
		sel := ncr.ANCR(g, c)
		union := LMST(g, c, sel, ACLMST, KeepUnion)
		inter := LMST(g, c, sel, ACLMST, KeepIntersection)
		if len(inter.Links) > len(union.Links) {
			t.Fatalf("seed %d: intersection kept more links than union", seed)
		}
		unionLinks := make(map[[2]int]bool)
		for _, l := range union.Links {
			unionLinks[[2]int{l.U, l.V}] = true
		}
		for _, l := range inter.Links {
			if !unionLinks[[2]int{l.U, l.V}] {
				t.Fatalf("seed %d: intersection link %v not kept by union", seed, l)
			}
		}
		if err := cds.CheckHeadsConnected(g, inter.CDS, c.Heads); err != nil {
			t.Fatalf("seed %d: intersection keep-rule broke connectivity: %v", seed, err)
		}
	}
}

func TestKeepRuleString(t *testing.T) {
	if KeepUnion.String() != "union" || KeepIntersection.String() != "intersection" {
		t.Fatal("keep rule names wrong")
	}
}

// TestGMSTIsSpanningTree: G-MST selects exactly heads-1 links forming a
// tree over the heads.
func TestGMSTIsSpanningTree(t *testing.T) {
	g, c := testInstance(t, 90, 6, 2, 23)
	res := run(t, g, c, nil, GMST)
	if len(res.Links) != len(c.Heads)-1 {
		t.Fatalf("G-MST has %d links for %d heads", len(res.Links), len(c.Heads))
	}
	idx := make(map[int]int)
	for i, h := range c.Heads {
		idx[h] = i
	}
	uf := graph.NewUnionFind(len(c.Heads))
	for _, l := range res.Links {
		if !uf.Union(idx[l.U], idx[l.V]) {
			t.Fatal("cycle in G-MST links")
		}
	}
	if uf.Sets() != 1 {
		t.Fatal("G-MST links do not span the heads")
	}
}

// TestGMSTLowerBoundTendency: across instances, G-MST should (almost
// always) use no more gateways than the mesh algorithms; aggregate to
// tolerate rare ties.
func TestGMSTLowerBoundTendency(t *testing.T) {
	wins := 0
	const trials = 10
	for seed := int64(0); seed < trials; seed++ {
		g, c := testInstance(t, 80, 6, 2, 900+seed)
		gm := run(t, g, c, nil, GMST).CDSSize()
		ncm := run(t, g, c, nil, NCMesh).CDSSize()
		acl := run(t, g, c, nil, ACLMST).CDSSize()
		if gm <= ncm && gm <= acl {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("G-MST was a lower bound on only %d/%d instances", wins, trials)
	}
}

// TestVirtualGraphWeights: virtual link weights equal hop distances and
// paths realize them.
func TestVirtualGraphWeights(t *testing.T) {
	g, c := testInstance(t, 70, 6, 2, 31)
	sel := ncr.ANCR(g, c)
	vg, paths, err := virtualGraphCtx(context.Background(), graph.Flatten(g), sel, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := vg.Vertices(); !reflect.DeepEqual(got, c.Heads) {
		t.Fatalf("virtual graph vertices %v, heads %v", got, c.Heads)
	}
	if len(paths) != sel.NumPairs() {
		t.Fatalf("%d virtual links for %d selected pairs", len(paths), sel.NumPairs())
	}
	for link, path := range paths {
		if want := g.HopDist(link[0], link[1]); len(path)-1 != want {
			t.Fatalf("virtual link %v path length %d, hop distance %d", link, len(path)-1, want)
		}
		if path[0] != link[0] || path[len(path)-1] != link[1] {
			t.Fatalf("virtual link %v path %v", link, path)
		}
	}
	// The graph stores those hop counts: each tree edge weighs its path.
	for _, e := range vg.MST() {
		if path := paths[[2]int{e.U, e.V}]; e.Weight != len(path)-1 {
			t.Fatalf("virtual link %v weight %d, path %v", e, e.Weight, path)
		}
	}
}

// TestSingleClusterNoGateways: one cluster needs no gateways under any
// algorithm.
func TestSingleClusterNoGateways(t *testing.T) {
	g := graph.New(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	c := cluster.Run(g, cluster.Options{K: 1})
	for _, algo := range Algorithms {
		res := run(t, g, c, nil, algo)
		if res.NumGateways() != 0 {
			t.Fatalf("%v selected gateways in a single-cluster network", algo)
		}
		if res.CDSSize() != 1 {
			t.Fatalf("%v CDS=%v", algo, res.CDS)
		}
	}
}

// TestMeshPathUniqueness: the mesh scheme installs exactly one path per
// selected pair (paths map is keyed by canonical pair).
func TestMeshPathUniqueness(t *testing.T) {
	g, c := testInstance(t, 80, 6, 2, 37)
	sel := selectNC(t, g, c)
	res := run(t, g, c, sel, NCMesh)
	if len(res.Paths) != sel.NumPairs() {
		t.Fatalf("mesh installed %d paths for %d pairs", len(res.Paths), sel.NumPairs())
	}
}

// TestHeadsOnPathNotGateways: nodes on a gateway path that happen to be
// clusterheads are not double-counted as gateways.
func TestHeadsOnPathNotGateways(t *testing.T) {
	// Line of three clusters with k=1: 0-1-2-3-4-5-6 gives heads 0,2,4,6;
	// the path from head 0 to head 4 passes through head 2.
	g := graph.New(7)
	for i := 0; i+1 < 7; i++ {
		g.AddEdge(i, i+1)
	}
	c := cluster.Run(g, cluster.Options{K: 1})
	res := run(t, g, c, nil, NCMesh)
	headSet := map[int]bool{0: true, 2: true, 4: true, 6: true}
	for _, gw := range res.Gateways {
		if headSet[gw] {
			t.Fatalf("head %d counted as gateway", gw)
		}
	}
}

// TestRunSelectedFromMatchesFullRun: with an unchanged graph and no
// dirty heads, the incremental entry point must reproduce the full run
// exactly — every cached path is intact and is reused as-is, and the
// local MSTs over the same virtual graph make the same decisions.
func TestRunSelectedFromMatchesFullRun(t *testing.T) {
	for _, algo := range Algorithms {
		g, c := testInstance(t, 90, 7, 2, 211)
		sel, err := ncr.SelectPar(context.Background(), g, graph.Flatten(g), c, algo.NeighborRule(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := RunSelectedPar(context.Background(), g, graph.Flatten(g), c, sel, algo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := RunSelectedFrom(context.Background(), g, graph.Flatten(g), c, sel, algo, nil, full, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc.Gateways, full.Gateways) || !reflect.DeepEqual(inc.CDS, full.CDS) ||
			!reflect.DeepEqual(inc.Paths, full.Paths) {
			t.Fatalf("%v: incremental no-op re-run diverged from the full run", algo)
		}
	}
}

// TestRunSelectedFromAfterRemoval: sever a gateway's edges and re-run
// incrementally over the same selection. Links whose paths broke (or
// touch dirty heads) are recomputed and the rest reuse their cached
// paths. On a removal-only change that is exact: an intact path that was
// the min-ID shortest path still is one, since removing edges neither
// shortens a route nor adds a lower-ID parent. So the repaired Result
// must equal a fresh run on the severed graph.
func TestRunSelectedFromAfterRemoval(t *testing.T) {
	for _, algo := range []Algorithm{ACLMST, NCLMST, ACMesh} {
		g, c := testInstance(t, 90, 7, 2, 223)
		sel, err := ncr.SelectPar(context.Background(), g, graph.Flatten(g), c, algo.NeighborRule(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		before, err := RunSelectedPar(context.Background(), g, graph.Flatten(g), c, sel, algo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(before.Gateways) == 0 {
			t.Skipf("%v: no gateways on this instance", algo)
		}
		gw := before.Gateways[0]
		g.RemoveVertexEdges(gw)

		dirty := map[int]bool{}
		for link, path := range before.Paths {
			for _, v := range path {
				if v == gw {
					dirty[link[0]] = true
					dirty[link[1]] = true
				}
			}
		}
		if reused := len(reusablePaths(g, before, dirty)); reused == 0 || reused == len(before.Paths) {
			t.Fatalf("%v: %d of %d paths reusable; want some but not all", algo, reused, len(before.Paths))
		}
		inc, err := RunSelectedFrom(context.Background(), g, graph.Flatten(g), c, sel, algo, nil, before, dirty)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunSelectedPar(context.Background(), g, graph.Flatten(g), c, sel, algo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc.Gateways, fresh.Gateways) || !reflect.DeepEqual(inc.Paths, fresh.Paths) ||
			!reflect.DeepEqual(inc.CDS, fresh.CDS) {
			t.Fatalf("%v: incremental repair diverged from a fresh run on the severed graph", algo)
		}
		// No reused path may traverse the severed node.
		for link, path := range inc.Paths {
			for _, v := range path {
				if v == gw {
					t.Fatalf("%v: link %v still routed through severed node %d", algo, link, gw)
				}
			}
		}
	}
}
