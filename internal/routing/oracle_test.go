package routing

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/mobility"
	"repro/internal/udg"
)

// oracleRoute is the whole-graph reference for Route: each leg is a
// full-BFS graph.ShortestPath. Route must return the same route, element
// for element, and the same error.
func oracleRoute(r *Router, src, dst int) ([]int, error) {
	if src == dst {
		return []int{src}, nil
	}
	hs, hd := r.c.Head[src], r.c.Head[dst]
	if hs == hd {
		return splice(r.g.ShortestPath(src, hs), r.g.ShortestPath(hs, dst)), nil
	}
	headPath := r.backbone.ShortestPath(hs, hd)
	if headPath == nil {
		return nil, fmt.Errorf("routing: no backbone path between heads %d and %d", hs, hd)
	}
	route := r.g.ShortestPath(src, hs)
	for i := 0; i+1 < len(headPath); i++ {
		u, v := headPath[i], headPath[i+1]
		a, b := min(u, v), max(u, v)
		path := r.res.Paths[[2]int{a, b}]
		if path[0] != u {
			rev := make([]int, len(path))
			for j, x := range path {
				rev[len(path)-1-j] = x
			}
			path = rev
		}
		route = splice(route, path)
	}
	return splice(route, r.g.ShortestPath(hd, dst)), nil
}

// assertRoutesMatchOracle compares Route with the oracle on sampled
// pairs of r's graph.
func assertRoutesMatchOracle(t *testing.T, label string, r *Router, rng *rand.Rand) {
	t.Helper()
	n := r.g.N()
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		got, gotErr := r.Route(src, dst)
		want, wantErr := oracleRoute(r, src, dst)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: %d→%d: Route=%v,%v oracle=%v,%v", label, src, dst, got, gotErr, want, wantErr)
		}
	}
}

// TestRouteMatchesOracleFresh: scratch legs equal whole-graph legs on
// freshly built clusterings.
func TestRouteMatchesOracleFresh(t *testing.T) {
	for k := 1; k <= 3; k++ {
		r, _ := testRouter(t, 150, 6, k, 31+int64(k))
		assertRoutesMatchOracle(t, fmt.Sprintf("k=%d", k), r, rand.New(rand.NewSource(int64(k))))
	}
}

// TestRouteMatchesOracleChurned: the same on churned structures, whose
// departed slots, repaired detours and re-selected gateways a fresh
// build never shows. Routes from or to a departed slot must fail alike.
func TestRouteMatchesOracleChurned(t *testing.T) {
	for k := 1; k <= 3; k++ {
		rng := rand.New(rand.NewSource(77 + int64(k)))
		net, err := udg.Generate(udg.Config{N: 150, AvgDegree: 6, RequireConnected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.BuildCtx(context.Background(), net.G, core.Options{K: k, Algorithm: gateway.ACLMST})
		if err != nil {
			t.Fatal(err)
		}
		m := mobility.NewMaintainerFrom(net.G, out)
		for batch := 0; batch < 6; batch++ {
			if _, err := m.ApplyBatch(context.Background(), churnBatch(m, rng)); err != nil {
				t.Fatalf("k=%d batch %d: %v", k, batch, err)
			}
			r := New(m.G, m.C, m.Res)
			assertRoutesMatchOracle(t, fmt.Sprintf("k=%d batch=%d", k, batch), r, rng)
		}
		departed := 0
		for v := 0; v < m.G.N(); v++ {
			if !m.Alive(v) {
				departed++
			}
		}
		if departed == 0 {
			t.Fatalf("k=%d: trace left no departed slot to route from", k)
		}
	}
}

// churnBatch draws four Leave, Join and Move events on distinct nodes,
// valid against m's current state: a departed node rejoins next to a
// random alive node and some of its neighbors, a move keeps a random
// half of the node's alive neighbors. No event links to a node another
// event of the batch touches.
func churnBatch(m *mobility.Maintainer, rng *rand.Rand) []mobility.Event {
	n := m.G.N()
	alive := func(v int) bool { return m.Alive(v) }
	var batch []mobility.Event
	touched := make(map[int]bool)
	for len(batch) < 4 {
		v := rng.Intn(n)
		if touched[v] {
			continue
		}
		touched[v] = true
		switch {
		case !alive(v):
			// Rejoin next to a random alive node and its alive neighbors.
			var nbrs []int
			if a := rng.Intn(n); alive(a) && !touched[a] {
				nbrs = append(nbrs, a)
				for _, w := range m.G.Neighbors(a) {
					if alive(w) && !touched[w] && rng.Intn(2) == 0 {
						nbrs = append(nbrs, w)
					}
				}
			}
			batch = append(batch, mobility.Event{Kind: mobility.EventJoin, Node: v, Neighbors: nbrs})
		case rng.Intn(2) == 0:
			batch = append(batch, mobility.Event{Kind: mobility.EventLeave, Node: v})
		default:
			var nbrs []int
			for _, w := range m.G.Neighbors(v) {
				if alive(w) && !touched[w] && rng.Intn(2) == 0 {
					nbrs = append(nbrs, w)
				}
			}
			batch = append(batch, mobility.Event{Kind: mobility.EventMove, Node: v, Neighbors: nbrs})
		}
	}
	return batch
}
