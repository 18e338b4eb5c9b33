package khop

import (
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
