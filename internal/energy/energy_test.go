package energy

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

func testNet(t testing.TB, n int, deg float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net.G
}

func TestSimulateValidation(t *testing.T) {
	g := testNet(t, 30, 6, 1)
	if _, err := Simulate(g, 2, gateway.ACLMST, DefaultModel(), PolicyStatic, 0); err == nil {
		t.Error("maxEpochs=0 accepted")
	}
	m := DefaultModel()
	m.Initial = 0
	if _, err := Simulate(g, 2, gateway.ACLMST, m, PolicyStatic, 10); err == nil {
		t.Error("zero initial energy accepted")
	}
}

func TestStaticFirstDeathIsHead(t *testing.T) {
	g := testNet(t, 60, 6, 2)
	m := DefaultModel()
	res, err := Simulate(g, 2, gateway.ACLMST, m, PolicyStatic, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// With costs 3/2/1 and initial 100, a static head dies at epoch
	// ceil(100/3)-1 = 33 (0-indexed).
	if res.FirstDeath != 33 {
		t.Fatalf("FirstDeath=%d, want 33", res.FirstDeath)
	}
	if res.MinResidual != 0 {
		t.Fatalf("MinResidual=%v", res.MinResidual)
	}
}

// TestRotationExtendsLifetime is §3.3's claim: rotating the clusterhead
// role by residual energy delays the first death.
func TestRotationExtendsLifetime(t *testing.T) {
	wins := 0
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		g := testNet(t, 80, 7, 100+seed)
		static, err := Lifetime(g, 2, gateway.ACLMST, DefaultModel(), PolicyStatic, 500)
		if err != nil {
			t.Fatal(err)
		}
		rotate, err := Lifetime(g, 2, gateway.ACLMST, DefaultModel(), PolicyRotate, 500)
		if err != nil {
			t.Fatal(err)
		}
		if rotate > static {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("rotation extended lifetime on only %d/%d instances", wins, trials)
	}
}

// TestRotationSpreadsService: many more distinct nodes serve as head
// under rotation.
func TestRotationSpreadsService(t *testing.T) {
	g := testNet(t, 80, 7, 5)
	static, err := Simulate(g, 2, gateway.ACLMST, DefaultModel(), PolicyStatic, 30)
	if err != nil {
		t.Fatal(err)
	}
	rotate, err := Simulate(g, 2, gateway.ACLMST, DefaultModel(), PolicyRotate, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rotate.HeadServices <= static.HeadServices {
		t.Fatalf("rotation served %d heads, static %d", rotate.HeadServices, static.HeadServices)
	}
}

func TestNoDeathWithinShortHorizon(t *testing.T) {
	g := testNet(t, 50, 6, 7)
	res, err := Simulate(g, 2, gateway.ACLMST, DefaultModel(), PolicyStatic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDeath != -1 || res.Epochs != 5 {
		t.Fatalf("res=%+v", res)
	}
	if res.MinResidual <= 0 || res.MeanResidual <= res.MinResidual {
		t.Fatalf("residuals: min=%v mean=%v", res.MinResidual, res.MeanResidual)
	}
	if lt, err := Lifetime(g, 2, gateway.ACLMST, DefaultModel(), PolicyStatic, 5); err != nil || lt != 5 {
		t.Fatalf("Lifetime=%d err=%v", lt, err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyStatic.String() != "static" || PolicyRotate.String() != "rotate" {
		t.Fatal("policy names wrong")
	}
	if Policy(5).String() != "policy(5)" {
		t.Fatal("unknown policy name wrong")
	}
}

// TestEnergyConservation: after e epochs with no deaths, total energy
// drawn equals the sum of per-epoch role costs.
func TestEnergyConservation(t *testing.T) {
	g := testNet(t, 60, 6, 9)
	m := DefaultModel()
	const epochs = 10
	res, err := Simulate(g, 2, gateway.ACLMST, m, PolicyStatic, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstDeath != -1 {
		t.Skip("a node died; conservation accounting differs")
	}
	// Static policy uses the same roles every epoch, so total draw is
	// epochs · (heads·HeadCost + gateways·GatewayCost + members·MemberCost).
	c := cluster.Run(g, cluster.Options{K: 2})
	gw := connect(t, g, c, gateway.ACLMST)
	heads := len(c.Heads)
	gws := len(gw.Gateways)
	members := g.N() - heads - gws
	wantPerEpoch := float64(heads)*m.HeadCost + float64(gws)*m.GatewayCost + float64(members)*m.MemberCost
	drawn := (m.Initial - res.MeanResidual) * float64(g.N())
	perEpoch := drawn / epochs
	if diff := perEpoch - wantPerEpoch; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("per-epoch draw %v, want %v", perEpoch, wantPerEpoch)
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
