package ncr_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cds"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/udg"
)

// TestWuLouSelectionConnects: at k=1 the 2.5-hop coverage rule feeds the
// same gateway machinery and must still connect all heads (its selection
// is a supergraph of A-NCR's). It lives in the external test package
// because gateway imports ncr, and it reads the WuLou reference from
// oracle_test.go.
func TestWuLouSelectionConnects(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		net, err := udg.Generate(udg.Config{N: 80, AvgDegree: 6, RequireConnected: true}, rand.New(rand.NewSource(1100+seed)))
		if err != nil {
			t.Fatal(err)
		}
		g, fg := net.G, graph.Flatten(net.G)
		c := cluster.Run(g, cluster.Options{K: 1})
		mesh := func(sel *ncr.Selection, algo gateway.Algorithm) *gateway.Result {
			t.Helper()
			res, err := gateway.RunSelectedPar(ctx, g, fg, c, sel, algo, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sel := ncr.WuLou(g, c)
		for _, res := range []*gateway.Result{
			mesh(sel, gateway.NCMesh),
			gateway.LMST(g, c, sel, gateway.NCLMST, gateway.KeepUnion),
		} {
			if err := cds.CheckHeadsConnected(g, res.CDS, c.Heads); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		// Sandwich in gateway counts: AC ≤ WuLou ≤ NC under mesh.
		nc, err := ncr.SelectPar(ctx, g, fg, c, ncr.RuleNC, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		acSize := mesh(ncr.ANCR(g, c), gateway.ACMesh).CDSSize()
		wlSize := mesh(sel, gateway.NCMesh).CDSSize()
		ncSize := mesh(nc, gateway.NCMesh).CDSSize()
		if !(acSize <= wlSize && wlSize <= ncSize) {
			t.Fatalf("seed %d: CDS sizes AC=%d WuLou=%d NC=%d not sandwiched", seed, acSize, wlSize, ncSize)
		}
	}
}
