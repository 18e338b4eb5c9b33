package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	khop "repro"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/udg"
)

// scaleNs is the single-build scale ladder; ScaleFigure keeps the rungs
// at or below RunConfig.ScaleMaxN (`khopsim -scale-max 1000000` runs the
// full ladder up to the million-node build).
var scaleNs = []int{1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000}

// ScaleFigure measures single-build wall time vs N on large
// grid-indexed unit-disk deployments, the workload behind
// `khopsim -fig scale`, in two columns: the serial build and the build
// under WithParallel-style sharding. Unlike the Monte-Carlo sweeps this
// figure reports wall-clock milliseconds, so its numbers are
// machine-dependent (and excluded from the golden gate); the
// deployments themselves, and the structures both columns build on
// them, remain seed-deterministic — each trial asserts the serial and
// parallel builds elect identical head sets and CDSes, and the first
// trial of every rung machine-checks the paper's
// invariants on the built structure with khop.VerifyResult (itself
// batched, so the check stays linear at the million-node rung).
//
// Deployments use the grid-indexed udg.Build without the connectivity
// filter: at these sizes a connected instance at moderate degree is
// vanishingly rare (the connectivity threshold grows like log N), and
// the pipeline handles components — exactly the regime a
// production-scale deployment lives in.
func ScaleFigure(ctx context.Context, cfg RunConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	workers := cfg.ScaleWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fig := &Figure{
		ID:     "scale",
		Title:  fmt.Sprintf("Single-build wall time vs N (D=10, k=2, AC-LMST, %d workers)", workers),
		XLabel: "Number of nodes",
		YLabel: "Build wall time [ms]",
	}
	batched := Series{Label: "batched BFS (serial)"}
	parallel := Series{Label: fmt.Sprintf("batched BFS (%d workers)", workers)}
	// One warm scratch per column, exactly like an engine's steady state.
	bs, ps := core.NewScratch(), core.NewScratch()
	for _, n := range scaleNs {
		if n > cfg.ScaleMaxN {
			continue
		}
		bSample, pSample := &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("scale/n=%d", n))
		// Trials time the build, so they must not race each other for
		// cores: run them sequentially whatever -parallel says; the
		// parallelism under test is inside the build.
		r.Parallel = 1
		_, err := RunTrials(ctx, r,
			func(ctx context.Context, trial int, rng *rand.Rand) ([2]float64, error) {
				net, err := udg.Generate(udg.Config{N: n, AvgDegree: 10}, rng)
				if err != nil {
					return [2]float64{}, err
				}
				build := func(s *core.Scratch, workers int) (*core.Output, float64, error) {
					//lint:ignore khoplint/determinism the scale figure's wall-ms column measures real build time by design
					start := time.Now()
					out, err := core.BuildCtx(ctx, net.G, core.Options{
						K:         2,
						Algorithm: gateway.ACLMST,
						Scratch:   s,
						Pool:      s.Par(workers),
					})
					//lint:ignore khoplint/determinism elapsed wall time is the measured quantity, not part of the clustering output
					return out, float64(time.Since(start).Microseconds()) / 1000, err
				}
				bOut, bMS, err := build(bs, 1)
				if err != nil {
					return [2]float64{}, err
				}
				pOut, pMS, err := build(ps, workers)
				if err != nil {
					return [2]float64{}, err
				}
				// Full set equality, not just cardinality: at these sizes
				// this is the only cross-path check on production-scale
				// graphs, and an equal-cardinality divergence must not
				// slip through.
				if !reflect.DeepEqual(bOut.Clustering.Heads, pOut.Clustering.Heads) {
					return [2]float64{}, fmt.Errorf("N=%d: parallel build elected a different head set than serial", n)
				}
				if !reflect.DeepEqual(bOut.Gateway.CDS, pOut.Gateway.CDS) {
					return [2]float64{}, fmt.Errorf("N=%d: parallel build selected a different CDS than serial", n)
				}
				if trial == 0 {
					if err := verifyScaleBuild(net, bOut); err != nil {
						return [2]float64{}, fmt.Errorf("N=%d: %w", n, err)
					}
				}
				return [2]float64{bMS, pMS}, nil
			},
			func(idx int, v [2]float64) (bool, error) {
				bSample.Add(v[0])
				pSample.Add(v[1])
				return idx+1 >= cfg.ScaleRuns, nil
			})
		if err != nil {
			return nil, fmt.Errorf("scale: N=%d: %w", n, err)
		}
		batched.Points = append(batched.Points, Point{N: n, Mean: bSample.Mean(), CI: bSample.CI(0.90), Runs: bSample.N()})
		parallel.Points = append(parallel.Points, Point{N: n, Mean: pSample.Mean(), CI: pSample.CI(0.90), Runs: pSample.N()})
	}
	fig.Series = []Series{batched, parallel}
	return fig, nil
}

// verifyScaleBuild machine-checks the paper's invariants on one rung's
// built structure via the public verifier: the facade Result is
// assembled field-for-field the way khop.Engine assembles it, over a
// facade Graph rebuilt from the deployment. This is the gate that keeps
// the million-node rung honest — VerifyResult's own batched passes make
// it affordable there.
func verifyScaleBuild(net *udg.Network, out *core.Output) error {
	g := net.G
	kg := khop.NewGraph(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				kg.AddEdge(u, v)
			}
		}
	}
	res := &khop.Result{
		K:                out.Clustering.K,
		Algorithm:        out.Gateway.Algorithm,
		Heads:            out.Clustering.Heads,
		HeadOf:           out.Clustering.Head,
		DistToHead:       out.Clustering.DistToHead,
		NeighborHeads:    out.Selection.Neighbors,
		Gateways:         out.Gateway.Gateways,
		CDS:              out.Gateway.CDS,
		GatewayPaths:     out.Gateway.Paths,
		IndependentHeads: true,
	}
	return khop.VerifyResult(kg, res)
}
