package proto

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/udg"
)

func testNetwork(t testing.TB, n int, deg float64, seed int64) *udg.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	return net
}

// TestDistributedMatchesCentralized is the end-to-end equivalence
// property: on random connected unit-disk networks, the distributed
// protocol produces the same clusterheads, membership, neighbor
// selection, and gateway set as the centralized reference, for every
// localized algorithm and several k.
func TestDistributedMatchesCentralized(t *testing.T) {
	algos := []gateway.Algorithm{gateway.NCMesh, gateway.ACMesh, gateway.NCLMST, gateway.ACLMST}
	for _, k := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			net := testNetwork(t, 60, 6, 100*int64(k)+seed)
			c := cluster.Run(net.G, cluster.Options{K: k})
			for _, algo := range algos {
				opt, err := AlgorithmOptions(k, algo)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(net.G, opt)
				if err != nil {
					t.Fatalf("k=%d seed=%d %v: %v", k, seed, algo, err)
				}
				if !reflect.DeepEqual(res.Clustering.Heads, c.Heads) {
					t.Fatalf("k=%d seed=%d %v: heads differ\ndistributed %v\ncentralized %v",
						k, seed, algo, res.Clustering.Heads, c.Heads)
				}
				if !reflect.DeepEqual(res.Clustering.Head, c.Head) {
					t.Fatalf("k=%d seed=%d %v: membership differs", k, seed, algo)
				}
				central, err := core.Connect(context.Background(), net.G, graph.Flatten(net.G), c, algo, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Selection.Neighbors, central.Selection.Neighbors) {
					t.Fatalf("k=%d seed=%d %v: selection differs\ndistributed %v\ncentralized %v",
						k, seed, algo, res.Selection.Neighbors, central.Selection.Neighbors)
				}
				want := central.Gateway
				if !reflect.DeepEqual(res.Gateways, want.Gateways) {
					t.Fatalf("k=%d seed=%d %v: gateways differ\ndistributed %v\ncentralized %v",
						k, seed, algo, res.Gateways, want.Gateways)
				}
				if err := cds.CheckKHopCDS(net.G, res.CDS, k); err != nil {
					t.Fatalf("k=%d seed=%d %v: %v", k, seed, algo, err)
				}
			}
		}
	}
}

// TestDistributedDistanceAffiliation checks equivalence under the
// distance-based affiliation rule as well.
func TestDistributedDistanceAffiliation(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		net := testNetwork(t, 70, 8, 500+seed)
		k := 2
		c := cluster.Run(net.G, cluster.Options{K: k, Affiliation: cluster.AffiliationDistance})
		opt := Options{K: k, Affiliation: cluster.AffiliationDistance, Rule: ncr.RuleANCR, UseLMST: true}
		res, err := Run(net.G, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Clustering.Head, c.Head) {
			t.Fatalf("seed=%d: membership differs under distance affiliation", seed)
		}
		if !reflect.DeepEqual(res.Clustering.DistToHead, c.DistToHead) {
			t.Fatalf("seed=%d: join distances differ", seed)
		}
	}
}

// TestRunRejectsBadOptions covers the argument validation paths.
func TestRunRejectsBadOptions(t *testing.T) {
	net := testNetwork(t, 20, 5, 7)
	if _, err := Run(net.G, Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(net.G, Options{K: 1, Affiliation: cluster.AffiliationSize}); err == nil {
		t.Error("size affiliation accepted by distributed protocol")
	}
	if _, err := AlgorithmOptions(1, gateway.GMST); err == nil {
		t.Error("G-MST accepted as a distributed algorithm")
	}
}

// TestPhaseStatsAccounting checks that phase stats sum to the total and
// that the protocol really pays for larger k (more flooding rounds).
func TestPhaseStatsAccounting(t *testing.T) {
	net := testNetwork(t, 60, 6, 42)
	totals := make([]int, 0, 2)
	for _, k := range []int{1, 3} {
		res, err := Run(net.G, Options{K: k, Rule: ncr.RuleANCR, UseLMST: true})
		if err != nil {
			t.Fatal(err)
		}
		var sum int
		for _, ph := range res.Phases {
			sum += ph.Stats.Transmissions
		}
		if sum != res.Total.Transmissions {
			t.Fatalf("k=%d: phase transmissions sum %d != total %d", k, sum, res.Total.Transmissions)
		}
		totals = append(totals, res.Total.Transmissions)
	}
	if totals[1] <= totals[0] {
		t.Errorf("expected k=3 to cost more transmissions than k=1, got %d vs %d", totals[1], totals[0])
	}
}

// TestDistributedDegreePriority: equivalence also holds under the
// highest-degree election priority (ranks travel inside messages).
func TestDistributedDegreePriority(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		net := testNetwork(t, 60, 7, 600+seed)
		prio := cluster.NewHighestDegree(net.G)
		c := cluster.Run(net.G, cluster.Options{K: 2, Priority: prio})
		res, err := Run(net.G, Options{K: 2, Priority: prio, Rule: ncr.RuleANCR, UseLMST: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Clustering.Heads, c.Heads) {
			t.Fatalf("seed=%d: heads differ under degree priority\ndistributed %v\ncentralized %v",
				seed, res.Clustering.Heads, c.Heads)
		}
		if !reflect.DeepEqual(res.Clustering.Head, c.Head) {
			t.Fatalf("seed=%d: membership differs under degree priority", seed)
		}
	}
}
