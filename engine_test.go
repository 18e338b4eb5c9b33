package khop

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/mobility"
)

// sameStructure fails the test when two results differ in any structural
// field (gateway paths excluded: only the engine materializes them for
// distributed builds).
func sameStructure(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Heads, want.Heads) ||
		!reflect.DeepEqual(got.HeadOf, want.HeadOf) ||
		!reflect.DeepEqual(got.DistToHead, want.DistToHead) ||
		!reflect.DeepEqual(got.Gateways, want.Gateways) ||
		!reflect.DeepEqual(got.CDS, want.CDS) ||
		got.IndependentHeads != want.IndependentHeads {
		t.Fatalf("%s: engine result differs from the pipeline's", label)
	}
}

// pipelineResult runs the internal stages directly — election (lowest
// ID, or Max-Min for MaxMin), neighbor selection, gateway selection —
// with no Engine in between, as the reference an engine build must
// match. Distributed builds are compared against the centralized
// stages: under the ideal MAC the protocol elects and marks exactly
// what they compute.
func pipelineResult(t *testing.T, g *Graph, mode Mode, algo Algorithm, k int) *Result {
	t.Helper()
	ctx := context.Background()
	var out *core.Output
	var err error
	if mode == MaxMin {
		out, err = core.Connect(ctx, g.g, graph.Flatten(g.g), maxmin.Run(g.g, k), algo, nil, nil)
	} else {
		out, err = core.BuildCtx(ctx, g.g, core.Options{K: k, Algorithm: algo})
	}
	if err != nil {
		t.Fatal(err)
	}
	res := assemble(out)
	res.IndependentHeads = mode != MaxMin
	return res
}

// TestEngineMatchesPipeline is the equivalence table of the acceptance
// criteria: all 5 algorithms × K ∈ {1,2,3} × all three modes through
// Engine.Build match the internal stages run directly and pass Verify.
func TestEngineMatchesPipeline(t *testing.T) {
	net := testNetwork(t, 60, 6, 71)
	g := net.Graph()
	ctx := context.Background()
	algorithms := []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST}

	for _, mode := range []Mode{Centralized, Distributed, MaxMin} {
		for _, algo := range algorithms {
			for _, k := range []int{1, 2, 3} {
				label := fmt.Sprintf("%v/%v/k=%d", mode, algo, k)
				e, err := NewEngine(g, WithK(k), WithAlgorithm(algo), WithMode(mode))
				if mode == Distributed && algo == GMST {
					if err == nil {
						t.Fatalf("%s: engine accepted the centralized-only algorithm", label)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := e.Build(ctx)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := got.Verify(g); err != nil {
					t.Fatalf("%s: %v", label, err)
				}

				if (mode == Distributed) != (got.Cost != nil) {
					t.Fatalf("%s: protocol cost %+v on a %v build", label, got.Cost, mode)
				}
				if got.Cost != nil && got.Cost.Transmissions <= 0 {
					t.Fatalf("%s: distributed build reports no transmissions: %+v", label, got.Cost)
				}
				sameStructure(t, label, got, pipelineResult(t, g, mode, algo, k))
				if len(got.GatewayPaths) == 0 && len(got.Heads) > 1 {
					t.Fatalf("%s: engine result is not self-contained (no gateway paths)", label)
				}
			}
		}
	}
}

func TestEngineBuildOverrides(t *testing.T) {
	net := testNetwork(t, 70, 6, 73)
	g := net.Graph()
	e, err := NewEngine(g, WithK(1), WithAlgorithm(NCMesh))
	if err != nil {
		t.Fatal(err)
	}
	over, err := e.Build(context.Background(), WithK(3), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	if over.K != 3 || over.Algorithm != ACLMST {
		t.Fatalf("override ignored: K=%d algo=%v", over.K, over.Algorithm)
	}
	// The engine's own configuration is untouched by per-build overrides.
	base, err := e.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.K != 1 || base.Algorithm != NCMesh {
		t.Fatalf("override leaked into engine defaults: K=%d algo=%v", base.K, base.Algorithm)
	}
	// Overrides are validated like constructor options.
	if _, err := e.Build(context.Background(), WithK(0)); err == nil {
		t.Fatal("invalid override accepted")
	}
}

func TestEngineOptionValidation(t *testing.T) {
	g := NewGraph(3)
	cases := []struct {
		name string
		opts []Option
	}{
		{"k=0", []Option{WithK(0)}},
		{"negative k", []Option{WithK(-2)}},
		{"unknown algorithm", []Option{WithAlgorithm(Algorithm(99))}},
		{"unknown affiliation", []Option{WithAffiliation(Affiliation(99))}},
		{"unknown mode", []Option{WithMode(Mode(99))}},
		{"distributed G-MST", []Option{WithMode(Distributed), WithAlgorithm(GMST)}},
		{"distributed size affiliation", []Option{WithMode(Distributed), WithAffiliation(AffiliationSize)}},
		{"max-min with priority", []Option{WithMode(MaxMin), WithPriority(LowestIDPriority())}},
		{"max-min with affiliation", []Option{WithMode(MaxMin), WithAffiliation(AffiliationDistance)}},
		{"loss below range", []Option{WithMode(Distributed), WithLoss(-0.1)}},
		{"loss above range", []Option{WithMode(Distributed), WithLoss(1)}},
		{"loss without distributed", []Option{WithLoss(0.2)}},
	}
	for _, tc := range cases {
		if _, err := NewEngine(g, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The defaults themselves are valid.
	if _, err := NewEngine(g); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestEngineContextCancellation(t *testing.T) {
	net := testNetwork(t, 80, 6, 79)
	g := net.Graph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{Centralized, Distributed, MaxMin} {
		e, err := NewEngine(g, WithK(2), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Build(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: Build under a cancelled context returned %v", mode, err)
		}
		if e.Result() != nil {
			t.Fatalf("%v: cancelled build left a result behind", mode)
		}
	}
}

// TestEngineApplyMatchesMobility checks the incremental event API
// against the internal maintainer it subsumes, departure by departure.
func TestEngineApplyMatchesMobility(t *testing.T) {
	net := testNetwork(t, 80, 7, 83)
	g := net.Graph()
	e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := core.BuildCtx(context.Background(), g.g, core.Options{K: 2, Algorithm: ACLMST})
	if err != nil {
		t.Fatal(err)
	}
	m := mobility.NewMaintainerFrom(g.g, out)

	for _, node := range []int{5, 17, 42, 63, 0} {
		reps, err := e.Apply(context.Background(), Leave(node))
		if err != nil {
			t.Fatalf("leave(%d): %v", node, err)
		}
		wantReps, err := m.ApplyBatch(context.Background(), []mobility.Event{{Kind: mobility.EventLeave, Node: node}})
		if err != nil {
			t.Fatalf("mobility leave(%d): %v", node, err)
		}
		wantRep := wantReps[0]
		if len(reps) != 1 || reps[0] != wantRep {
			t.Fatalf("leave(%d): report %+v, mobility says %+v", node, reps, wantRep)
		}
		cur := e.Result()
		if !reflect.DeepEqual(cur.Heads, m.C.Heads) ||
			!reflect.DeepEqual(cur.Gateways, m.Res.Gateways) ||
			!reflect.DeepEqual(cur.CDS, m.Res.CDS) {
			t.Fatalf("leave(%d): engine structure diverged from the maintainer", node)
		}
		if e.Alive(node) {
			t.Fatalf("node %d alive after leave", node)
		}
	}

	// Batched events work too; errors carry the completed prefix, and
	// Result reflects the repairs that did apply before the failure.
	if reps, err := e.Apply(context.Background(), Leave(7), Leave(7)); err == nil {
		t.Fatal("double departure accepted")
	} else if len(reps) != 1 {
		t.Fatalf("expected the first leave to be reported, got %d reports", len(reps))
	}
	if _, err := m.ApplyBatch(context.Background(), []mobility.Event{{Kind: mobility.EventLeave, Node: 7}}); err != nil {
		t.Fatal(err)
	}
	cur := e.Result()
	if e.Alive(7) || cur.HeadOf[7] != 7 {
		t.Fatalf("Result went stale after a failed batch: alive=%v HeadOf[7]=%d", e.Alive(7), cur.HeadOf[7])
	}
	if !reflect.DeepEqual(cur.Heads, m.C.Heads) || !reflect.DeepEqual(cur.CDS, m.Res.CDS) {
		t.Fatal("structure diverged from the maintainer after a failed batch")
	}
}

func TestEngineApplyRequiresBuild(t *testing.T) {
	net := testNetwork(t, 40, 6, 89)
	e, err := NewEngine(net.Graph(), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(context.Background(), Leave(0)); err == nil {
		t.Fatal("Apply before Build accepted")
	}
	if _, err := e.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(context.Background(), Leave(0)); err != nil {
		t.Fatal(err)
	}
	// A fresh Build restarts maintenance from the full network.
	if _, err := e.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !e.Alive(0) {
		t.Fatal("rebuild did not restore the full network")
	}
	if _, err := e.Apply(context.Background(), Leave(0)); err != nil {
		t.Fatalf("re-departing after a rebuild: %v", err)
	}
}

// TestEngineDistributedSelfContained: the historical footgun — routing
// over a distributed result — must now just work, because Engine results
// always carry their gateway paths.
func TestEngineDistributedSelfContained(t *testing.T) {
	net := testNetwork(t, 80, 6, 97)
	g := net.Graph()
	e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST), WithMode(Distributed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GatewayPaths) == 0 {
		t.Fatal("distributed result carries no gateway paths")
	}
	router, err := NewRouter(g, res)
	if err != nil {
		t.Fatal(err)
	}
	route, err := router.Route(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	if route[0] != 1 || route[len(route)-1] != 77 {
		t.Fatalf("route %v", route)
	}
	if _, err := NewBroadcastPlan(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestResultWithoutGatewayPathsErrors(t *testing.T) {
	net := testNetwork(t, 80, 6, 101)
	g := net.Graph()
	res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	stripped := *res
	stripped.GatewayPaths = nil
	if _, err := NewRouter(g, &stripped); !errors.Is(err, ErrNoGatewayPaths) {
		t.Fatalf("NewRouter on a path-less result: %v", err)
	}
	if _, err := NewBroadcastPlan(g, &stripped); !errors.Is(err, ErrNoGatewayPaths) {
		t.Fatalf("NewBroadcastPlan on a path-less result: %v", err)
	}
}

// TestEngineConcurrentBuilds exercises the scratch pool under the race
// detector: one engine, many simultaneous builds.
func TestEngineConcurrentBuilds(t *testing.T) {
	net := testNetwork(t, 60, 6, 103)
	g := net.Graph()
	e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := e.Build(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if err := res.Verify(g); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEngineLossSeedDeterminism(t *testing.T) {
	net := testNetwork(t, 50, 6, 107)
	g := net.Graph()
	build := func() *Cost {
		e, err := NewEngine(g, WithK(2), WithAlgorithm(ACMesh), WithMode(Distributed), WithLoss(0.05), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
	a, b := build(), build()
	if a.Transmissions != b.Transmissions || a.Rounds != b.Rounds {
		t.Fatalf("same seed, different protocol cost: %+v vs %+v", a, b)
	}
}

// TestEngineLossyResultHasNoPaths: a lossy protocol's marks may not
// match any loss-free path set, so lossy Results must refuse the
// path-dependent applications instead of mixing inconsistent views.
func TestEngineLossyResultHasNoPaths(t *testing.T) {
	net := testNetwork(t, 50, 6, 109)
	g := net.Graph()
	e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST), WithMode(Distributed), WithLoss(0.1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GatewayPaths) != 0 {
		t.Fatalf("lossy result carries %d gateway paths", len(res.GatewayPaths))
	}
	if len(res.Heads) > 1 {
		if _, err := NewRouter(g, res); !errors.Is(err, ErrNoGatewayPaths) {
			t.Fatalf("NewRouter on a lossy result: %v", err)
		}
	}
}
