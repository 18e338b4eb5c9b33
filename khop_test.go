package khop

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testNetwork(t testing.TB, n int, deg float64, seed int64) *Network {
	t.Helper()
	net, err := RandomNetwork(NetworkConfig{N: n, AvgDegree: deg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// mustBuild builds g once through a fresh Engine with the given options,
// failing the test on any error.
func mustBuild(t testing.TB, g *Graph, opts ...Option) *Result {
	t.Helper()
	res, err := buildOnce(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// buildOnce builds g once through a fresh Engine with the given options.
func buildOnce(g *Graph, opts ...Option) (*Result, error) {
	e, err := NewEngine(g, opts...)
	if err != nil {
		return nil, err
	}
	return e.Build(context.Background())
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if !reflect.DeepEqual(g.Neighbors(1), []int{0, 2}) {
		t.Fatalf("Neighbors=%v", g.Neighbors(1))
	}
	if g.Connected() {
		t.Fatal("node 3 is isolated")
	}
}

func TestRandomNetworkProperties(t *testing.T) {
	net := testNetwork(t, 100, 6, 1)
	g := net.Graph()
	if g.N() != 100 {
		t.Fatalf("N=%d", g.N())
	}
	if !g.Connected() {
		t.Fatal("RandomNetwork returned a disconnected graph")
	}
	if net.TransmissionRange() <= 0 {
		t.Fatal("nonpositive range")
	}
	for v := 0; v < net.N(); v++ {
		x, y := net.Position(v)
		if x < 0 || x > 100 || y < 0 || y > 100 {
			t.Fatalf("node %d at (%v, %v) outside the default field", v, x, y)
		}
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	a := testNetwork(t, 60, 6, 42)
	b := testNetwork(t, 60, 6, 42)
	for v := 0; v < 60; v++ {
		ax, ay := a.Position(v)
		bx, by := b.Position(v)
		if ax != bx || ay != by {
			t.Fatal("same seed, different deployment")
		}
	}
}

func TestRandomNetworkCustomField(t *testing.T) {
	net, err := RandomNetwork(NetworkConfig{N: 50, AvgDegree: 8, Width: 30, Height: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < net.N(); v++ {
		x, y := net.Position(v)
		if x < 0 || x > 30 || y < 0 || y > 20 {
			t.Fatalf("node %d at (%v, %v) outside 30×20", v, x, y)
		}
	}
}

func TestRandomNetworkDisconnectedError(t *testing.T) {
	_, err := RandomNetwork(NetworkConfig{N: 30, AvgDegree: 1.2, Seed: 1})
	if err == nil {
		t.Skip("sparse network happened to be connected")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err=%v", err)
	}
	// The wrap carries the attempted configuration (N, degree, seed).
	for _, want := range []string{"N=30", "degree 1.2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// AllowDisconnected must succeed.
	if _, err := RandomNetwork(NetworkConfig{N: 30, AvgDegree: 1.2, Seed: 1, AllowDisconnected: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAllAlgorithmsVerify(t *testing.T) {
	net := testNetwork(t, 90, 6, 7)
	g := net.Graph()
	for _, algo := range []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST} {
		for _, k := range []int{1, 2, 3} {
			res := mustBuild(t, g, WithK(k), WithAlgorithm(algo))
			if err := res.Verify(g); err != nil {
				t.Fatalf("%v k=%d: %v", algo, k, err)
			}
			if res.K != k || res.Algorithm != algo {
				t.Fatalf("echo fields wrong: %+v", res)
			}
		}
	}
}

func TestBuildRejectsBadK(t *testing.T) {
	g := NewGraph(3)
	if _, err := buildOnce(g, WithK(0)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := buildOnce(g, WithK(-1), WithMode(Distributed)); err == nil {
		t.Fatal("K=-1 accepted by a distributed build")
	}
}

func TestBuildDistributedMatchesBuild(t *testing.T) {
	net := testNetwork(t, 70, 6, 9)
	g := net.Graph()
	want := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	got := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST), WithMode(Distributed))
	cost := got.Cost
	if want.Cost != nil {
		t.Fatalf("centralized build reports a protocol cost: %+v", want.Cost)
	}
	if !reflect.DeepEqual(got.Heads, want.Heads) ||
		!reflect.DeepEqual(got.HeadOf, want.HeadOf) ||
		!reflect.DeepEqual(got.Gateways, want.Gateways) ||
		!reflect.DeepEqual(got.CDS, want.CDS) {
		t.Fatal("distributed result differs from centralized")
	}
	if cost.Transmissions <= 0 || cost.Rounds <= 0 || len(cost.Phases) == 0 {
		t.Fatalf("cost=%+v", cost)
	}
	sum := 0
	for _, ph := range cost.Phases {
		sum += ph.Transmissions
	}
	if sum != cost.Transmissions {
		t.Fatalf("phase sum %d ≠ total %d", sum, cost.Transmissions)
	}
}

func TestBuildDistributedRejectsGMST(t *testing.T) {
	net := testNetwork(t, 30, 6, 2)
	if _, err := buildOnce(net.Graph(), WithK(1), WithAlgorithm(GMST), WithMode(Distributed)); err == nil {
		t.Fatal("G-MST accepted by a distributed build")
	}
}

func TestBuildAffiliationAndPriorityOptions(t *testing.T) {
	net := testNetwork(t, 80, 7, 11)
	g := net.Graph()
	for _, aff := range []Affiliation{AffiliationID, AffiliationDistance, AffiliationSize} {
		res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST), WithAffiliation(aff))
		if err := res.Verify(g); err != nil {
			t.Fatalf("affiliation %v: %v", aff, err)
		}
	}
	energy := make([]float64, g.N())
	for i := range energy {
		energy[i] = float64(g.N() - i)
	}
	for _, prio := range []Priority{LowestIDPriority(), HighestDegreePriority(g), HighestEnergyPriority(energy)} {
		res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST), WithPriority(prio))
		if err := res.Verify(g); err != nil {
			t.Fatalf("priority %T: %v", prio, err)
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	net := testNetwork(t, 60, 6, 13)
	g := net.Graph()
	res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	// Remove a gateway from the CDS: head connectivity should break on
	// most instances; corrupt membership instead, which always fails.
	bad := *res
	bad.HeadOf = append([]int(nil), res.HeadOf...)
	if len(res.Gateways) > 0 {
		bad.HeadOf[res.Gateways[0]] = res.Gateways[0] // fake self-head
		if err := bad.Verify(g); err == nil {
			t.Fatal("corrupted membership passed Verify")
		}
	}
}

func TestGatewayPathsExposed(t *testing.T) {
	net := testNetwork(t, 80, 6, 15)
	g := net.Graph()
	res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	if len(res.GatewayPaths) == 0 {
		t.Fatal("no gateway paths on a multi-cluster network")
	}
	for link, path := range res.GatewayPaths {
		if path[0] != link[0] || path[len(path)-1] != link[1] {
			t.Fatalf("path %v does not realize link %v", path, link)
		}
	}
}

// TestMaintainerFacade: a departure maintained through Engine.Apply
// updates liveness and reports the departed node; a second departure
// of the same node is rejected.
func TestMaintainerFacade(t *testing.T) {
	net := testNetwork(t, 80, 7, 17)
	e, err := NewEngine(net.Graph(), WithK(2), WithAlgorithm(ACLMST))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(e.Result().Heads) == 0 || len(e.Result().CDS) == 0 {
		t.Fatal("empty initial structure")
	}
	if !e.Alive(0) {
		t.Fatal("node 0 not alive")
	}
	reps, err := e.Apply(context.Background(), Leave(0))
	if err != nil {
		t.Fatal(err)
	}
	if e.Alive(0) {
		t.Fatal("node 0 alive after departure")
	}
	if len(reps) != 1 || reps[0].Node != 0 || reps[0].Kind != EventLeave {
		t.Fatalf("reports %+v", reps)
	}
	if _, err := e.Apply(context.Background(), Leave(0)); err == nil {
		t.Fatal("double departure accepted")
	}
}

// TestBuildQuickInvariants: quick-check over random seeds and k that the
// full pipeline always verifies.
func TestBuildQuickInvariants(t *testing.T) {
	f := func(rawSeed uint16, rawK, rawAlgo uint8) bool {
		k := int(rawK%3) + 1
		algo := []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST}[rawAlgo%5]
		net, err := RandomNetwork(NetworkConfig{N: 50, AvgDegree: 7, Seed: int64(rawSeed)})
		if err != nil {
			return true // sparse instance failed to connect; skip
		}
		res, err := buildOnce(net.Graph(), WithK(k), WithAlgorithm(algo))
		if err != nil {
			return false
		}
		return res.Verify(net.Graph()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHeadsSortedAndUnique(t *testing.T) {
	net := testNetwork(t, 90, 6, 19)
	res := mustBuild(t, net.Graph(), WithK(2), WithAlgorithm(ACLMST))
	for i := 1; i < len(res.Heads); i++ {
		if res.Heads[i] <= res.Heads[i-1] {
			t.Fatalf("Heads not sorted/unique: %v", res.Heads)
		}
	}
	for i := 1; i < len(res.CDS); i++ {
		if res.CDS[i] <= res.CDS[i-1] {
			t.Fatalf("CDS not sorted/unique: %v", res.CDS)
		}
	}
}

func TestBuildHierarchyFacade(t *testing.T) {
	net := testNetwork(t, 150, 6, 59)
	g := net.Graph()
	h, err := BuildHierarchy(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() < 2 {
		t.Fatalf("depth=%d", h.Depth())
	}
	if len(h.TopHeads()) != 1 {
		t.Fatalf("top heads=%v", h.TopHeads())
	}
	if len(h.HeadsAt(0)) <= len(h.HeadsAt(h.Depth()-1)) {
		t.Fatal("levels do not shrink")
	}
	if _, err := h.HeadAt(0, h.Depth()); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if _, err := BuildHierarchy(g, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestBuildMaxMin(t *testing.T) {
	net := testNetwork(t, 90, 7, 61)
	g := net.Graph()
	res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST), WithMode(MaxMin))
	if res.IndependentHeads {
		t.Fatal("Max-Min result claims independence")
	}
	// Verify skips independence but still checks domination,
	// membership, and head connectivity through the CDS.
	if err := res.Verify(g); err != nil {
		t.Fatal(err)
	}
	if _, err := buildOnce(g, WithK(0), WithAlgorithm(ACLMST), WithMode(MaxMin)); err == nil {
		t.Fatal("d=0 accepted")
	}
	// The paper's clustering on the same instance claims independence.
	lo := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	if !lo.IndependentHeads {
		t.Fatal("lowest-ID result lost its independence flag")
	}
}
