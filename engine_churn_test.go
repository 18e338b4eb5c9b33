package khop

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// checkStructureInvariants verifies the paper's two maintained
// guarantees on an arbitrary (possibly churned) topology: every alive
// node is within k hops of an alive head (or is its own head when its
// component lost all heads), and the heads of each component are
// connected through the CDS. alive == nil means every node is alive.
func checkStructureInvariants(t *testing.T, g *graph.Graph, res *Result, k int, alive func(int) bool) {
	t.Helper()
	if alive == nil {
		alive = func(int) bool { return true }
	}
	aliveHeads := make(map[int]bool)
	for _, h := range res.Heads {
		if !alive(h) {
			t.Fatalf("dead node %d listed as head", h)
		}
		aliveHeads[h] = true
	}
	for v := 0; v < g.N(); v++ {
		if !alive(v) {
			continue
		}
		h := res.HeadOf[v]
		if !aliveHeads[h] {
			t.Fatalf("alive node %d assigned to non-head %d", v, h)
		}
		if d := g.HopDist(h, v); d == graph.Unreachable || d > k {
			if v != h {
				t.Fatalf("alive node %d is %d hops from head %d (k=%d)", v, d, h, k)
			}
		}
	}
	sub := g.InducedSubgraph(res.CDS)
	uf := graph.NewUnionFind(g.N())
	for _, e := range g.Edges() {
		uf.Union(e[0], e[1])
	}
	headsOf := make(map[int][]int)
	for _, h := range res.Heads {
		headsOf[uf.Find(h)] = append(headsOf[uf.Find(h)], h)
	}
	for _, headsHere := range headsOf {
		if len(headsHere) > 1 && !sub.ConnectedAmong(headsHere) {
			t.Fatalf("heads %v share a component but are disconnected in the CDS", headsHere)
		}
	}
}

// TestEngineApplyValidatesEvents: the bugfix sweep — malformed events
// are rejected with a descriptive khop error before anything mutates,
// never by a panic from the internal graph layer; liveness violations
// (double leaves, joins of alive nodes) error the same way.
func TestEngineApplyValidatesEvents(t *testing.T) {
	net := testNetwork(t, 30, 6, 101)
	e, err := NewEngine(net.Graph(), WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Build(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.Result()

	malformed := []Event{
		Leave(30),      // node out of range
		Leave(-1),      // negative node
		Join(99, 0),    // join node out of range
		Move(0, 0),     // self-neighbor
		Move(0, -2),    // negative neighbor
		Join(5, 31),    // neighbor out of range
		Move(64, 0, 1), // move node out of range
	}
	for _, ev := range malformed {
		reps, err := e.Apply(ctx, Leave(3), ev) // valid event after it must not apply either
		if err == nil {
			t.Errorf("%v: accepted", ev)
			continue
		}
		if !strings.Contains(err.Error(), "khop:") {
			t.Errorf("%v: error %q does not identify the khop layer", ev, err)
		}
		if len(reps) != 0 {
			t.Errorf("%v: %d events applied from a rejected batch", ev, len(reps))
		}
	}
	if cur := e.Result(); cur != before || !e.Alive(3) {
		t.Fatal("rejected batches mutated the structure")
	}

	// Liveness violations surface as errors mid-batch.
	if _, err := e.Apply(ctx, Leave(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(ctx, Leave(3)); err == nil {
		t.Error("double leave accepted")
	}
	if _, err := e.Apply(ctx, Join(7)); err == nil {
		t.Error("join of an alive node accepted")
	}
	if _, err := e.Apply(ctx, Move(3, 7)); err == nil {
		t.Error("move of a departed node accepted")
	}
	if _, err := e.Apply(ctx, Move(7, 3)); err == nil {
		t.Error("departed neighbor accepted")
	}
}

// TestEngineBuildResetsLiveness: a fresh Build restarts maintenance from
// the full network — departed nodes are alive again (engine.go resets
// the maintainer) and the structure matches the original build.
func TestEngineBuildResetsLiveness(t *testing.T) {
	net := testNetwork(t, 50, 6, 103)
	e, err := NewEngine(net.Graph(), WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, err := e.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(ctx, Leave(5), Leave(9), Leave(14)); err != nil {
		t.Fatal(err)
	}
	if e.Alive(5) || e.Alive(9) || e.Alive(14) {
		t.Fatal("departed nodes still alive")
	}
	second, err := e.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{5, 9, 14} {
		if !e.Alive(v) {
			t.Fatalf("node %d still dead after a fresh Build", v)
		}
	}
	sameStructure(t, "rebuild-after-churn", second, first)
}

// cancelAfterN is a context whose Err starts reporting Canceled after n
// calls, simulating cancellation that lands mid-batch.
type cancelAfterN struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfterN) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestEngineApplyCancelledContext: a batch cut short by cancellation
// reports the already-applied repairs and leaves Result freshly
// reflecting them, not stale at the pre-batch structure.
func TestEngineApplyCancelledContext(t *testing.T) {
	net := testNetwork(t, 50, 6, 107)
	e, err := NewEngine(net.Graph(), WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterN{Context: context.Background(), n: 1}
	reps, err := e.Apply(ctx, Leave(4), Leave(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reps) != 1 || reps[0].Node != 4 || reps[0].Kind != EventLeave {
		t.Fatalf("applied prefix misreported: %+v", reps)
	}
	if e.Alive(4) {
		t.Fatal("applied leave not reflected in liveness")
	}
	if !e.Alive(8) {
		t.Fatal("cancelled leave applied anyway")
	}
	// Result is fresh: node 4 is no longer anyone's head or gateway.
	cur := e.Result()
	for _, h := range cur.Heads {
		if h == 4 {
			t.Fatal("departed node 4 still a head in Result")
		}
	}
	for _, gw := range cur.Gateways {
		if gw == 4 {
			t.Fatal("departed node 4 still a gateway in Result")
		}
	}
	// An already-cancelled context applies nothing and reports nothing.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if reps, err := e.Apply(done, Leave(8)); !errors.Is(err, context.Canceled) || len(reps) != 0 {
		t.Fatalf("pre-cancelled Apply: reps=%d err=%v", len(reps), err)
	}
	if !e.Alive(8) {
		t.Fatal("pre-cancelled Apply mutated liveness")
	}
}

// TestEngineJoinMoveEvents drives the full event set through the public
// API: kinds and liveness round-trip, member joins are free, and the
// independence guarantee is forfeited once edges are added.
func TestEngineJoinMoveEvents(t *testing.T) {
	net := testNetwork(t, 60, 7, 109)
	g := net.Graph()
	e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Build(ctx); err != nil {
		t.Fatal(err)
	}
	if !e.Result().IndependentHeads {
		t.Fatal("build lost head independence")
	}

	v := 21
	nbrs := append([]int(nil), g.Neighbors(v)...)
	reps, err := e.Apply(ctx, Leave(v))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Kind != EventLeave || e.Alive(v) {
		t.Fatalf("leave misapplied: %+v alive=%v", reps[0], e.Alive(v))
	}
	if !e.Result().IndependentHeads {
		t.Fatal("leave-only churn must preserve head independence")
	}

	// A radio-silence rejoin adds no edges, so independence survives it.
	if _, err := e.Apply(ctx, Join(v)); err != nil {
		t.Fatal(err)
	}
	if !e.Result().IndependentHeads {
		t.Fatal("zero-neighbor join must preserve head independence")
	}
	if _, err := e.Apply(ctx, Leave(v)); err != nil {
		t.Fatal(err)
	}

	reps, err = e.Apply(ctx, Join(v, nbrs...))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Kind != EventJoin || !e.Alive(v) {
		t.Fatalf("join misapplied: %+v alive=%v", reps[0], e.Alive(v))
	}
	if e.Result().IndependentHeads {
		t.Fatal("join added edges; independence can no longer be guaranteed")
	}

	// Move a node onto another neighborhood and keep the invariants.
	anchor := 40
	target := []int{anchor}
	for _, w := range g.Neighbors(anchor) {
		if w != 33 && e.Alive(w) {
			target = append(target, w)
		}
	}
	reps, err = e.Apply(ctx, Move(33, target...))
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Kind != EventMove {
		t.Fatalf("kind = %v", reps[0].Kind)
	}
	checkStructureInvariants(t, e.maint.G, e.Result(), 2, e.Alive)
}

// TestEngineChurnMatchesRebuild is the acceptance criterion: an
// incrementally maintained structure and a from-scratch Build of the
// final churned topology satisfy the same invariants — k-hop coverage of
// every alive node and CDS connectivity of every component's heads.
func TestEngineChurnMatchesRebuild(t *testing.T) {
	for _, k := range []int{1, 2} {
		net := testNetwork(t, 80, 7, int64(113+k))
		g := net.Graph()
		e, err := NewEngine(g, WithK(k), WithAlgorithm(ACLMST))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := e.Build(ctx); err != nil {
			t.Fatal(err)
		}
		trace := churnTrace(g, 8, 4, rand.New(rand.NewSource(int64(k)*127)))
		for _, batch := range trace {
			if _, err := e.Apply(ctx, batch...); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
		}
		checkStructureInvariants(t, e.maint.G, e.Result(), k, e.Alive)

		// Rebuild the final topology from scratch and check the same
		// invariants hold there (departed nodes are isolated vertices
		// that trivially head themselves).
		final := NewGraph(g.N())
		for _, edge := range e.maint.G.Edges() {
			final.AddEdge(edge[0], edge[1])
		}
		e2, err := NewEngine(final, WithK(k), WithAlgorithm(ACLMST))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e2.Build(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkStructureInvariants(t, final.g, fresh, k, nil)
	}
}

// equalPriority ranks every node the same, so it is not a total order.
type equalPriority struct{}

func (equalPriority) Rank(int) cluster.Rank { return cluster.Rank{} }

// TestEngineBuildEqualRanksError: a Priority that ranks two nodes equal
// makes Engine.Build return an error naming them, not a clustering in
// which every node is a head.
func TestEngineBuildEqualRanksError(t *testing.T) {
	net := testNetwork(t, 20, 5, 131)
	e, err := NewEngine(net.Graph(), WithK(1), WithPriority(equalPriority{}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Build(context.Background())
	if err == nil {
		t.Fatal("equal ranks returned no error")
	}
	if !strings.Contains(err.Error(), "nodes 0 and 1 rank equal") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRestoredEngineApplyMatchesBuilt: an engine restored from a build's
// Result adopts the same structure the built engine does, so the same
// churn trace yields the same repair reports and the same Result after
// every batch — neighbor selection, gateway paths and head independence
// included.
func TestRestoredEngineApplyMatchesBuilt(t *testing.T) {
	ctx := context.Background()
	for _, algo := range []Algorithm{ACLMST, NCLMST, ACMesh, GMST} {
		for seed := int64(1); seed <= 6; seed++ {
			g := testNetwork(t, 80, 7, 600+seed).Graph()
			built, err := NewEngine(g, WithK(2), WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			res, err := built.Build(ctx)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreEngine(g, res, WithK(2), WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			// A plain member k hops from its head lies on no other
			// member's head path, so its departure normally re-runs no
			// gateway selection (§3.3) and the Result after it still
			// carries the adopted neighbor selection. It rejoins before
			// the trace, which starts from an all-alive network.
			member := -1
			for v, h := range res.HeadOf {
				if h != v && res.DistToHead[v] == 2 && !slices.Contains(res.Gateways, v) {
					member = v
					break
				}
			}
			prelude := [][]Event{{Leave(member)}, {Join(member, g.Neighbors(member)...)}}
			trace := churnTrace(g, 6, 5, rand.New(rand.NewSource(seed)))
			for i, batch := range append(prelude, trace...) {
				want, err := built.Apply(ctx, batch...)
				if err != nil {
					t.Fatalf("%v seed %d batch %d: built: %v", algo, seed, i, err)
				}
				got, err := restored.Apply(ctx, batch...)
				if err != nil {
					t.Fatalf("%v seed %d batch %d: restored: %v", algo, seed, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v seed %d batch %d: reports differ:\n got %+v\nwant %+v", algo, seed, i, got, want)
				}
				if !reflect.DeepEqual(restored.Result(), built.Result()) {
					t.Fatalf("%v seed %d batch %d: restored Result differs from the built engine's", algo, seed, i)
				}
			}
		}
	}
}
