package mobility

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/udg"
)

func testGraph(t testing.TB, n int, deg float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net.G
}

func TestWaypointStaysInField(t *testing.T) {
	w := Waypoint{Field: geom.NewRect(100, 100), MinSpeed: 1, MaxSpeed: 5, Pause: 0.5}
	rng := rand.New(rand.NewSource(1))
	start := udg.RandomPlacement(50, w.Field, rng)
	st := w.NewState(start, rng)
	for step := 0; step < 200; step++ {
		w.Step(st, 1.0, rng)
		for i, p := range st.Pos {
			if !w.Field.Contains(p) {
				t.Fatalf("step %d: node %d left the field: %v", step, i, p)
			}
		}
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	w := Waypoint{Field: geom.NewRect(100, 100), MinSpeed: 2, MaxSpeed: 2}
	rng := rand.New(rand.NewSource(2))
	start := udg.RandomPlacement(20, w.Field, rng)
	st := w.NewState(start, rng)
	w.Step(st, 1.0, rng)
	moved := 0
	for i := range start {
		if st.Pos[i] != start[i] {
			moved++
		}
	}
	if moved < 15 {
		t.Fatalf("only %d/20 nodes moved", moved)
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	// With speed s and time dt, no node may travel farther than s·dt.
	w := Waypoint{Field: geom.NewRect(100, 100), MinSpeed: 1, MaxSpeed: 4}
	rng := rand.New(rand.NewSource(3))
	start := udg.RandomPlacement(30, w.Field, rng)
	st := w.NewState(start, rng)
	for step := 0; step < 50; step++ {
		before := append([]geom.Point(nil), st.Pos...)
		w.Step(st, 0.5, rng)
		for i := range before {
			if d := before[i].Dist(st.Pos[i]); d > 4*0.5+1e-9 {
				t.Fatalf("node %d moved %v in 0.5t at max speed 4", i, d)
			}
		}
	}
}

func TestWaypointPause(t *testing.T) {
	// A node that reaches its destination must pause before moving on.
	w := Waypoint{Field: geom.NewRect(10, 10), MinSpeed: 100, MaxSpeed: 100, Pause: 5}
	rng := rand.New(rand.NewSource(4))
	st := w.NewState([]geom.Point{{X: 5, Y: 5}}, rng)
	// Speed 100 on a 10×10 field: the first leg completes within 0.2t,
	// then the node pauses 5t. Step to just after arrival:
	w.Step(st, 0.2, rng)
	arrived := st.Pos[0]
	w.Step(st, 1.0, rng) // still pausing
	if st.Pos[0] != arrived {
		t.Fatal("node moved during pause")
	}
}

func TestWaypointDeterministic(t *testing.T) {
	run := func() []geom.Point {
		w := Waypoint{Field: geom.NewRect(100, 100), MinSpeed: 1, MaxSpeed: 3, Pause: 1}
		rng := rand.New(rand.NewSource(7))
		st := w.NewState(udg.RandomPlacement(10, w.Field, rng), rng)
		for i := 0; i < 20; i++ {
			w.Step(st, 0.7, rng)
		}
		return st.Pos
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClassify(t *testing.T) {
	g := testGraph(t, 80, 6, 5)
	c := cluster.Run(g, cluster.Options{K: 2})
	res := connect(t, g, c, gateway.ACLMST).Gateway
	counts := map[Role]int{}
	for v := 0; v < g.N(); v++ {
		counts[Classify(c, res, v)]++
	}
	if counts[RoleHead] != len(c.Heads) {
		t.Fatalf("classified %d heads, clustering has %d", counts[RoleHead], len(c.Heads))
	}
	if counts[RoleGateway] != len(res.Gateways) {
		t.Fatalf("classified %d gateways, result has %d", counts[RoleGateway], len(res.Gateways))
	}
	if counts[RoleMember] != g.N()-len(c.Heads)-len(res.Gateways) {
		t.Fatalf("member count wrong: %v", counts)
	}
}

func TestRoleString(t *testing.T) {
	if RoleMember.String() != "member" || RoleGateway.String() != "gateway" || RoleHead.String() != "head" {
		t.Fatal("role names wrong")
	}
	if Role(9).String() != "role(9)" {
		t.Fatal("unknown role name wrong")
	}
}

// checkMaintained verifies the structure over the alive subgraph: every
// alive node is within k hops of an alive head, and the surviving heads
// are connected through the CDS if the alive subgraph keeps them in one
// component.
func checkMaintained(t *testing.T, m *Maintainer) {
	t.Helper()
	aliveHeads := make(map[int]bool)
	for _, h := range m.C.Heads {
		if !m.Alive(h) {
			t.Fatalf("dead node %d still listed as head", h)
		}
		aliveHeads[h] = true
	}
	for v := 0; v < m.G.N(); v++ {
		if !m.Alive(v) {
			continue
		}
		h := m.C.Head[v]
		if !aliveHeads[h] {
			t.Fatalf("alive node %d assigned to non-head %d", v, h)
		}
		if d := m.G.HopDist(h, v); d == graph.Unreachable || d > m.K {
			// A node can legitimately become unreachable from every
			// head if the alive graph is disconnected; then it must be
			// its own head.
			if v != h {
				t.Fatalf("alive node %d is %d hops from head %d (k=%d)", v, d, h, m.K)
			}
		}
	}
	// Gateways never include heads or dead nodes.
	for _, gw := range m.Res.Gateways {
		if aliveHeads[gw] {
			t.Fatalf("head %d in gateway list", gw)
		}
		if !m.Alive(gw) {
			t.Fatalf("dead node %d in gateway list", gw)
		}
	}
	// Head connectivity within each alive component.
	uf := graph.NewUnionFind(m.G.N())
	for _, e := range m.G.Edges() {
		uf.Union(e[0], e[1])
	}
	headsOf := make(map[int][]int)
	for _, h := range m.C.Heads {
		headsOf[uf.Find(h)] = append(headsOf[uf.Find(h)], h)
	}
	sub := m.G.InducedSubgraph(m.Res.CDS)
	for _, headsHere := range headsOf {
		if len(headsHere) > 1 && !sub.ConnectedAmong(headsHere) {
			t.Fatalf("heads %v in one alive component but disconnected in CDS", headsHere)
		}
	}
}

func TestDepartMember(t *testing.T) {
	g := testGraph(t, 80, 7, 11)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	// Find a plain member.
	member := -1
	for v := 0; v < g.N(); v++ {
		if Classify(m.C, m.Res, v) == RoleMember {
			member = v
			break
		}
	}
	if member < 0 {
		t.Skip("no plain member on this instance")
	}
	headsBefore := append([]int(nil), m.C.Heads...)
	gwBefore := append([]int(nil), m.Res.Gateways...)
	rep, err := depart(m, member)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != RoleMember || rep.ReclusteredNodes != 0 || rep.ReselectedHeads != 0 {
		t.Fatalf("member departure report: %+v", rep)
	}
	if len(m.C.Heads) != len(headsBefore) || len(m.Res.Gateways) != len(gwBefore) {
		t.Fatal("member departure changed the CDS")
	}
	checkMaintained(t, m)
}

func TestDepartGateway(t *testing.T) {
	g := testGraph(t, 80, 7, 13)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	if len(m.Res.Gateways) == 0 {
		t.Skip("no gateways on this instance")
	}
	gw := m.Res.Gateways[0]
	rep, err := depart(m, gw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != RoleGateway {
		t.Fatalf("role=%v", rep.Role)
	}
	if rep.ReselectedHeads < 1 {
		t.Fatalf("gateway departure reselected %d heads", rep.ReselectedHeads)
	}
	if !m.Alive(0) && gw != 0 {
		t.Fatal("wrong node departed")
	}
	checkMaintained(t, m)
}

func TestDepartHead(t *testing.T) {
	g := testGraph(t, 80, 7, 17)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	head := m.C.Heads[len(m.C.Heads)/2]
	members := len(m.C.Members(head)) - 1
	rep, err := depart(m, head)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != RoleHead {
		t.Fatalf("role=%v", rep.Role)
	}
	if rep.ReclusteredNodes < members {
		t.Fatalf("re-clustered %d of %d orphans", rep.ReclusteredNodes, members)
	}
	for _, h := range m.C.Heads {
		if h == head {
			t.Fatal("departed head still listed")
		}
	}
	checkMaintained(t, m)
}

func TestDepartErrors(t *testing.T) {
	g := testGraph(t, 40, 6, 19)
	m := newMaintainer(t, g, 1, gateway.ACLMST)
	if _, err := depart(m, -1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := depart(m, g.N()); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := depart(m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := depart(m, 0); err == nil {
		t.Error("double departure accepted")
	}
}

// TestDepartManyInvariants is the churn stress test: remove half the
// network node by node and verify the maintained structure after every
// departure, across k and algorithms.
func TestDepartManyInvariants(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, algo := range []gateway.Algorithm{gateway.ACLMST, gateway.NCMesh} {
			g := testGraph(t, 60, 7, int64(23+k))
			m := newMaintainer(t, g, k, algo)
			rng := rand.New(rand.NewSource(int64(k) * 31))
			order := rng.Perm(g.N())
			for _, node := range order[:g.N()/2] {
				if _, err := depart(m, node); err != nil {
					t.Fatalf("k=%d %v: %v", k, algo, err)
				}
				checkMaintained(t, m)
			}
		}
	}
}

// TestMaintainerMatchesFreshCDSInvariants: after churn, the maintained
// CDS still passes the core k-hop CDS checks restricted to the largest
// alive component.
func TestMaintainerDominationOnAliveGraph(t *testing.T) {
	g := testGraph(t, 70, 8, 29)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	rng := rand.New(rand.NewSource(3))
	for _, node := range rng.Perm(g.N())[:20] {
		if _, err := depart(m, node); err != nil {
			t.Fatal(err)
		}
	}
	// Domination over the alive subgraph: every alive node must be
	// within k hops of some surviving head. (The generic cds checker
	// cannot be used directly because departed nodes are isolated
	// vertices that no head can reach.)
	covered := make(map[int]bool)
	for _, h := range m.C.Heads {
		m.G.EachWithin(nil, h, 2, func(v, _ int) bool {
			covered[v] = true
			return true
		})
	}
	for v := 0; v < g.N(); v++ {
		if m.Alive(v) && !covered[v] {
			t.Fatalf("alive node %d is more than k hops from every surviving head", v)
		}
	}
	_ = cds.CheckDominatingSet // cds used in other tests via checkMaintained
}

func TestNewMaintainerDoesNotMutateInput(t *testing.T) {
	g := testGraph(t, 50, 6, 31)
	edgesBefore := g.M()
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	if _, err := depart(m, m.C.Heads[0]); err != nil {
		t.Fatal(err)
	}
	if g.M() != edgesBefore {
		t.Fatal("maintainer mutated the caller's graph")
	}
}

func TestJoinBackAsMember(t *testing.T) {
	g := testGraph(t, 80, 7, 37)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	// Depart a plain member, then join it back with its original links.
	var member = -1
	for v := 0; v < g.N(); v++ {
		if Classify(m.C, m.Res, v) == RoleMember {
			member = v
			break
		}
	}
	if member < 0 {
		t.Skip("no plain member on this instance")
	}
	nbrs := append([]int(nil), g.Neighbors(member)...)
	if _, err := depart(m, member); err != nil {
		t.Fatal(err)
	}
	alive := nbrs[:0]
	for _, w := range nbrs {
		if m.Alive(w) {
			alive = append(alive, w)
		}
	}
	reps, err := m.ApplyBatch(context.Background(), []Event{{Kind: EventJoin, Node: member, Neighbors: alive}})
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if rep.Kind != EventJoin || !m.Alive(member) {
		t.Fatalf("join report %+v, alive=%v", rep, m.Alive(member))
	}
	// A member join is free for the CDS exactly when all its links stay
	// inside its own cluster; links bridging foreign clusters change the
	// adjacent-cluster graph and must re-run gateway selection (the
	// invariant-suite fuzzer found the unconditional-free version lets a
	// component merge go unwired).
	if rep.Role == RoleMember {
		bridges := false
		for _, w := range alive {
			if m.C.Head[w] != m.C.Head[member] {
				bridges = true
			}
		}
		if rep.GatewayDirty != bridges {
			t.Fatalf("member join GatewayDirty=%v, bridging links=%v: %+v", rep.GatewayDirty, bridges, rep)
		}
	}
	checkMaintained(t, m)
}

func TestJoinInRadioSilenceBecomesHead(t *testing.T) {
	g := testGraph(t, 40, 6, 41)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	if _, err := depart(m, 11); err != nil {
		t.Fatal(err)
	}
	reps, err := m.ApplyBatch(context.Background(), []Event{{Kind: EventJoin, Node: 11}})
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if rep.Role != RoleHead || rep.NewHeads != 1 || !rep.GatewayDirty {
		t.Fatalf("silent join report %+v", rep)
	}
	if m.C.Head[11] != 11 {
		t.Fatalf("node 11 heads %d, want itself", m.C.Head[11])
	}
	checkMaintained(t, m)
}

func TestMovePreservesInvariants(t *testing.T) {
	for _, k := range []int{1, 2} {
		g := testGraph(t, 60, 7, int64(43+k))
		m := newMaintainer(t, g, k, gateway.ACLMST)
		rng := rand.New(rand.NewSource(int64(k) * 47))
		for step := 0; step < 15; step++ {
			v := rng.Intn(g.N())
			// Move v onto the (alive) neighborhood of another random node.
			anchor := rng.Intn(g.N())
			var nbrs []int
			for _, w := range g.Neighbors(anchor) {
				if w != v && m.Alive(w) {
					nbrs = append(nbrs, w)
				}
			}
			if m.Alive(anchor) && anchor != v {
				nbrs = append(nbrs, anchor)
			}
			reps, err := m.ApplyBatch(context.Background(), []Event{{Kind: EventMove, Node: v, Neighbors: nbrs}})
			if err != nil {
				t.Fatalf("k=%d move(%d): %v", k, v, err)
			}
			if reps[0].Kind != EventMove {
				t.Fatalf("kind=%v", reps[0].Kind)
			}
			checkMaintained(t, m)
		}
	}
}

func TestApplyBatchCoalescesGatewayRuns(t *testing.T) {
	g := testGraph(t, 80, 7, 53)
	m := newMaintainer(t, g, 2, gateway.ACLMST)
	// Two head departures in one batch: both dirty the gateway
	// structure, but the batch pays for one selection re-run.
	if len(m.C.Heads) < 3 {
		t.Skip("not enough heads")
	}
	evs := []Event{
		{Kind: EventLeave, Node: m.C.Heads[0]},
		{Kind: EventLeave, Node: m.C.Heads[1]},
	}
	reps, err := m.ApplyBatch(context.Background(), evs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if !rep.GatewayDirty {
			t.Fatalf("report %d: head departure not gateway-dirty: %+v", i, rep)
		}
		if rep.BatchGatewayRuns != 1 || rep.BatchGatewaySaved != 1 {
			t.Fatalf("report %d: coalescing stats %+v, want 1 run and 1 saved", i, rep)
		}
	}
	checkMaintained(t, m)
}

func TestApplyBatchEventErrors(t *testing.T) {
	g := testGraph(t, 40, 6, 59)
	m := newMaintainer(t, g, 1, gateway.ACLMST)
	ctx := context.Background()
	bad := [][]Event{
		{{Kind: EventJoin, Node: 0}},                              // join of an alive node
		{{Kind: EventMove, Node: 0, Neighbors: []int{0}}},         // self-neighbor
		{{Kind: EventMove, Node: 0, Neighbors: []int{99}}},        // neighbor out of range
		{{Kind: EventLeave, Node: -1}},                            // node out of range
		{{Kind: EventLeave, Node: 40}},                            // node out of range
		{{Kind: EventMove, Node: 39, Neighbors: []int{0, 1, -1}}}, // negative neighbor
		{{Kind: EventKind(9), Node: 0}},                           // unknown kind
	}
	for i, evs := range bad {
		if _, err := m.ApplyBatch(ctx, evs); err == nil {
			t.Errorf("case %d (%v): accepted", i, evs[0])
		}
	}
	// Dead nodes cannot move and cannot be neighbors.
	if _, err := depart(m, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyBatch(ctx, []Event{{Kind: EventMove, Node: 5, Neighbors: []int{1}}}); err == nil {
		t.Error("move of a departed node accepted")
	}
	if _, err := m.ApplyBatch(ctx, []Event{{Kind: EventMove, Node: 1, Neighbors: []int{5}}}); err == nil {
		t.Error("departed neighbor accepted")
	}
	checkMaintained(t, m)
}

func TestApplyBatchStopsOnCancelledContext(t *testing.T) {
	g := testGraph(t, 40, 6, 61)
	m := newMaintainer(t, g, 1, gateway.ACLMST)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps, err := m.ApplyBatch(ctx, []Event{{Kind: EventLeave, Node: 3}})
	if err == nil || len(reps) != 0 {
		t.Fatalf("cancelled batch: reps=%d err=%v", len(reps), err)
	}
	if !m.Alive(3) {
		t.Fatal("event applied despite cancelled context")
	}
}

// TestChurnManyInvariants is the full-churn stress test: random leaves,
// joins, and moves in batches, with the maintained structure verified
// after every batch.
func TestChurnManyInvariants(t *testing.T) {
	for _, algo := range []gateway.Algorithm{gateway.ACLMST, gateway.GMST} {
		for _, k := range []int{1, 2, 3} {
			churnMany(t, algo, k)
		}
	}
}

// churnMany applies random Leave/Join/Move batches to one Maintainer and
// checks the invariants after each. A G-MST refresh must also equal the
// MST over every head pair of the repaired clustering, though it runs
// on the NC selection only.
func churnMany(t *testing.T, algo gateway.Algorithm, k int) {
	g := testGraph(t, 60, 7, int64(67+k))
	m := newMaintainer(t, g, k, algo)
	rng := rand.New(rand.NewSource(int64(k) * 71))
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	liveNbrs := func(v int) []int {
		var out []int
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				out = append(out, w)
			}
		}
		return out
	}
	for batchNo := 0; batchNo < 12; batchNo++ {
		var batch []Event
		for len(batch) < 4 {
			v := rng.Intn(g.N())
			switch {
			case !alive[v]:
				alive[v] = true
				batch = append(batch, Event{Kind: EventJoin, Node: v, Neighbors: liveNbrs(v)})
			case rng.Intn(2) == 0:
				alive[v] = false
				batch = append(batch, Event{Kind: EventLeave, Node: v})
			default:
				batch = append(batch, Event{Kind: EventMove, Node: v, Neighbors: liveNbrs(v)})
			}
		}
		reps, err := m.ApplyBatch(context.Background(), batch)
		if err != nil {
			t.Fatalf("k=%d batch %d: %v", k, batchNo, err)
		}
		checkMaintained(t, m)
		if algo == gateway.GMST && reps[0].BatchGatewayRuns > 0 {
			checkGlobalMST(t, m)
		}
		for v := range alive {
			if alive[v] != m.Alive(v) {
				t.Fatalf("k=%d: liveness of %d diverged", k, v)
			}
		}
	}
}

// checkGlobalMST compares m's G-MST with G-MST run on the complete
// selection of every head pair, which takes the MST over all pairs.
func checkGlobalMST(t *testing.T, m *Maintainer) {
	t.Helper()
	all := &ncr.Selection{Rule: ncr.RuleNC, K: m.K, Neighbors: make(map[int][]int, len(m.C.Heads))}
	for _, h := range m.C.Heads {
		all.Neighbors[h] = nil
		for _, o := range m.C.Heads {
			if o != h {
				all.Neighbors[h] = append(all.Neighbors[h], o)
			}
		}
	}
	want, err := gateway.RunSelectedPar(context.Background(), m.G, graph.Flatten(m.G), m.C, all, gateway.GMST, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Res, want) {
		t.Fatalf("refreshed G-MST differs from the MST over all head pairs:\n got %+v\nwant %+v", m.Res, want)
	}
}

// TestAdoptInfersDepartedSlots pins the restore contract: adopting a
// structure that already carries departed slots (self-headed, unlisted,
// edge-less — what a snapshot of a churned deployment looks like)
// resumes with those nodes dead, so a double Leave still errors and a
// Join still brings them back; and adopting a fresh structure keeps
// everyone alive, including isolated singleton heads, which are listed.
func TestAdoptInfersDepartedSlots(t *testing.T) {
	g := testGraph(t, 60, 6, 9)
	m1 := newMaintainer(t, g, 2, gateway.ACLMST)
	if _, err := m1.ApplyBatch(context.Background(), []Event{
		{Kind: EventLeave, Node: 5},
		{Kind: EventLeave, Node: 17},
	}); err != nil {
		t.Fatal(err)
	}

	// Re-adopt the churned structure, as a snapshot restore does.
	m2 := NewMaintainerFrom(m1.G, m1.Output())
	for _, v := range []int{5, 17} {
		if m2.Alive(v) {
			t.Errorf("departed slot %d adopted as alive", v)
		}
	}
	if m2.Alive(3) != true {
		t.Error("alive member adopted as dead")
	}
	if _, err := m2.ApplyBatch(context.Background(), []Event{{Kind: EventLeave, Node: 5}}); err == nil {
		t.Error("double leave accepted after re-adoption")
	}
	if _, err := m2.ApplyBatch(context.Background(), []Event{{Kind: EventJoin, Node: 5, Neighbors: []int{1, 2}}}); err != nil {
		t.Errorf("join of a departed slot rejected after re-adoption: %v", err)
	}
	if !m2.Alive(5) {
		t.Error("rejoined node not alive")
	}

	// A fresh build with an isolated vertex: the isolated node heads a
	// listed singleton cluster, so it must adopt as alive.
	iso := graph.New(4)
	iso.AddEdge(0, 1)
	iso.AddEdge(1, 2)
	c := cluster.Run(iso, cluster.Options{K: 1})
	m3 := NewMaintainerFrom(iso, connect(t, iso, c, gateway.ACLMST))
	for v := 0; v < 4; v++ {
		if !m3.Alive(v) {
			t.Errorf("fresh adoption marked node %d dead", v)
		}
	}
}

// depart applies a single Leave of node as a one-event batch.
func depart(m *Maintainer, node int) (RepairReport, error) {
	reps, err := m.ApplyBatch(context.Background(), []Event{{Kind: EventLeave, Node: node}})
	if err != nil {
		return RepairReport{}, err
	}
	return reps[0], nil
}

// connect runs core.Connect for algo on the clustering c of g.
func connect(tb testing.TB, g *graph.Graph, c *cluster.Clustering, algo gateway.Algorithm) *core.Output {
	tb.Helper()
	out, err := core.Connect(context.Background(), g, graph.Flatten(g), c, algo, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// newMaintainer builds algo's structure at radius k on g and adopts it.
func newMaintainer(tb testing.TB, g *graph.Graph, k int, algo gateway.Algorithm) *Maintainer {
	tb.Helper()
	out, err := core.BuildCtx(context.Background(), g, core.Options{K: k, Algorithm: algo})
	if err != nil {
		tb.Fatal(err)
	}
	return NewMaintainerFrom(g, out)
}
