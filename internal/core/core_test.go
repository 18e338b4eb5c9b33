package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/udg"
)

func TestBuildPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := udg.Generate(udg.Config{N: 80, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range gateway.Algorithms {
		out, err := BuildCtx(context.Background(), net.G, Options{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if err := cds.CheckClustering(net.G, out.Clustering); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := cds.CheckKHopCDS(net.G, out.Gateway.CDS, 2); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.Selection == nil {
			t.Fatalf("%v: nil selection", algo)
		}
	}
}

func TestBuildRejectsBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := udg.Generate(udg.Config{N: 20, AvgDegree: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCtx(context.Background(), net.G, Options{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestSelectionForRules: Connect selects by the algorithm's neighbor
// rule, A-NCR for the AC algorithms and NC for the rest, G-MST included.
func TestSelectionForRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := udg.Generate(udg.Config{N: 60, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: 2})
	sel := func(algo gateway.Algorithm) *ncr.Selection {
		out, err := Connect(context.Background(), net.G, graph.Flatten(net.G), c, algo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Clustering != c {
			t.Fatalf("%v: Connect replaced the clustering", algo)
		}
		return out.Selection
	}
	acSel, ncSel := sel(gateway.ACLMST), sel(gateway.NCLMST)
	if acSel.Rule != ncr.RuleANCR || ncSel.Rule != ncr.RuleNC {
		t.Fatalf("rules: %v %v", acSel.Rule, ncSel.Rule)
	}
	if !reflect.DeepEqual(sel(gateway.GMST).Neighbors, ncSel.Neighbors) {
		t.Fatal("GMST should run on the NC selection")
	}
}
