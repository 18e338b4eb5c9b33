package khop

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func builtResult(t testing.TB, n, k int, seed int64) (*Graph, *Result) {
	t.Helper()
	net := testNetwork(t, n, 7, seed)
	g := net.Graph()
	return g, mustBuild(t, g, WithK(k), WithAlgorithm(ACLMST))
}

func TestBroadcastPlanCoverage(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g, res := builtResult(t, 90, k, int64(40+k))
		plan, err := NewBroadcastPlan(g, res)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < g.N(); src += 11 {
			st := plan.Broadcast(src)
			if !st.Covered {
				t.Fatalf("k=%d src=%d: %v", k, src, st)
			}
		}
		if plan.ForwarderCount() < len(res.CDS) {
			t.Fatalf("k=%d: plan smaller than the CDS", k)
		}
	}
}

func TestBroadcastPlanBeatsBlind(t *testing.T) {
	g, res := builtResult(t, 120, 2, 43)
	plan, err := NewBroadcastPlan(g, res)
	if err != nil {
		t.Fatal(err)
	}
	blind := BlindFlood(g, 0)
	cds := plan.Broadcast(0)
	if !blind.Covered || !cds.Covered {
		t.Fatal("coverage lost")
	}
	if cds.Transmissions >= blind.Transmissions {
		t.Fatalf("CDS broadcast (%d tx) did not beat blind flooding (%d tx)",
			cds.Transmissions, blind.Transmissions)
	}
	for v := 0; v < g.N(); v++ {
		_ = plan.Forwards(v) // must not panic for any node
	}
}

// TestBroadcastPlanMatchesOracleUnderChurn replays seeded Leave, Join
// and Move batches through Engine.Apply and, after every batch, checks
// each node's forwarding bit against a whole-graph oracle: the CDS, plus
// the interior of the min-ID shortest path (graph.ShortestPath, one full
// BFS per member) from every listed head to each of its members.
// Departed slots — self-headed but unlisted — get no path.
func TestBroadcastPlanMatchesOracleUnderChurn(t *testing.T) {
	ctx := context.Background()
	for _, disconnected := range []bool{false, true} {
		for k := 1; k <= 3; k++ {
			label := fmt.Sprintf("disconnected=%v k=%d", disconnected, k)
			net, err := RandomNetwork(NetworkConfig{N: 160, AvgDegree: 6, Seed: int64(60 + k), AllowDisconnected: disconnected})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(net.Graph(), WithK(k), WithAlgorithm(ACLMST))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Build(ctx); err != nil {
				t.Fatal(err)
			}
			departed := 0
			for b, batch := range churnTrace(net.Graph(), 8, 6, rand.New(rand.NewSource(int64(k)))) {
				if _, err := e.Apply(ctx, batch...); err != nil {
					t.Fatalf("%s batch %d: %v", label, b, err)
				}
				g, res := e.CurrentGraph(), e.Result()
				plan, err := NewBroadcastPlan(g, res)
				if err != nil {
					t.Fatal(err)
				}
				want := oracleForwarders(g, res)
				for v := range want {
					if plan.Forwards(v) != want[v] {
						t.Fatalf("%s batch %d: Forwards(%d)=%v, oracle %v", label, b, v, plan.Forwards(v), want[v])
					}
					if !e.Alive(v) {
						departed++
					}
				}
			}
			if departed == 0 {
				t.Fatalf("%s: trace left no departed slot", label)
			}
		}
	}
}

// oracleForwarders is the whole-graph broadcast plan of res over g.
func oracleForwarders(g *Graph, res *Result) []bool {
	fwd := make([]bool, g.N())
	for _, v := range res.CDS {
		fwd[v] = true
	}
	listed := make(map[int]bool, len(res.Heads))
	for _, h := range res.Heads {
		listed[h] = true
	}
	for v, h := range res.HeadOf {
		if !listed[h] {
			continue
		}
		path := g.g.ShortestPath(h, v)
		for i := 1; i+1 < len(path); i++ {
			fwd[path[i]] = true
		}
	}
	return fwd
}

func TestRouterFacade(t *testing.T) {
	g, res := builtResult(t, 100, 2, 47)
	router, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	route, err := router.Route(3, 97)
	if err != nil {
		t.Fatal(err)
	}
	if route[0] != 3 || route[len(route)-1] != 97 {
		t.Fatalf("route=%v", route)
	}
	for i := 0; i+1 < len(route); i++ {
		if !g.HasEdge(route[i], route[i+1]) {
			t.Fatalf("non-link on route: %v", route)
		}
	}
	s, err := router.Stretch(3, 97)
	if err != nil || s < 1 {
		t.Fatalf("stretch=%v err=%v", s, err)
	}
	flat, hier := router.TableSizes()
	if hier >= flat {
		t.Fatalf("hierarchical %d ≥ flat %d", hier, flat)
	}
}

// TestRouterRejectsOutOfRange: a src or dst outside [0, N) is an error
// from both Route and Stretch, never a panic, and never a one-node route
// for src == dst.
func TestRouterRejectsOutOfRange(t *testing.T) {
	g, res := builtResult(t, 60, 2, 53)
	router, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{-1, 3}, {3, -1}, {3, 600}, {600, 3}, {60, 60}, {-5, -5}} {
		if route, err := router.Route(p[0], p[1]); err == nil {
			t.Errorf("Route(%d, %d) = %v, want an error", p[0], p[1], route)
		}
		if s, err := router.Stretch(p[0], p[1]); err == nil {
			t.Errorf("Stretch(%d, %d) = %v, want an error", p[0], p[1], s)
		}
	}
	if route, err := router.Route(59, 59); err != nil || len(route) != 1 {
		t.Errorf("Route(59, 59) = %v, %v; want [59]", route, err)
	}
}

func TestRouterAllPairsValid(t *testing.T) {
	g, res := builtResult(t, 60, 3, 53)
	router, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.N(); src += 6 {
		for dst := 0; dst < g.N(); dst += 9 {
			route, err := router.Route(src, dst)
			if err != nil {
				t.Fatalf("%d→%d: %v", src, dst, err)
			}
			if route[0] != src || route[len(route)-1] != dst {
				t.Fatalf("%d→%d endpoints: %v", src, dst, route)
			}
		}
	}
}
