// Package experiment reproduces the paper's evaluation: parameter sweeps
// over node count N, average degree D, and cluster radius k, with the
// paper's adaptive repetition rule, producing the series behind every
// figure (Figures 5, 6, 7), plus the extension experiments (protocol
// overhead vs k, dynamic maintenance cost).
//
// All randomness is derived from an explicit base seed: every trial of
// every sweep point owns a rand.Rand seeded from (base seed, sweep-point
// key, trial index), so a given (seed, configuration) pair reproduces
// identical numbers regardless of how many workers run the trials — see
// Runner.
package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/udg"
)

// Point is one x-position of a series: the sample mean of the metric at
// node count N with its 90% confidence half-width and repetition count.
type Point struct {
	N    int     `json:"x"`
	Mean float64 `json:"mean"`
	CI   float64 `json:"ci90"`
	Runs int     `json:"runs"`
}

// Series is one labeled curve of a figure.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Figure is a reproduced figure: several series over the same x-axis.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
}

// DefaultNs is the paper's x-axis: 50 to 200 nodes.
var DefaultNs = []int{50, 75, 100, 125, 150, 175, 200}

// SweepConfig parameterizes one CDS-size sweep (one subfigure): the
// sweep-specific shape plus the embedded cross-workload execution knobs
// (seed, stopping rule, worker count, progress).
type SweepConfig struct {
	RunConfig
	Ns          []int
	Degree      float64
	K           int
	Algorithms  []gateway.Algorithm
	Affiliation cluster.Affiliation
	Priority    cluster.Priority // nil = lowest ID
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Ns) == 0 {
		c.Ns = DefaultNs
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = gateway.Algorithms
	}
	c.RunConfig = c.RunConfig.withDefaults()
	return c
}

// Instance bundles one generated network with its clustering and the
// CSR snapshot the clustering was elected on, so several algorithms can
// be evaluated on identical inputs (paired comparison, like the paper's
// simulator) without flattening the network again.
type Instance struct {
	Net  *udg.Network
	Flat *graph.FlatGraph
	C    *cluster.Clustering
}

// NewInstance generates one connected network and clusters it.
func NewInstance(n int, degree float64, k int, aff cluster.Affiliation, prio cluster.Priority, rng *rand.Rand) (*Instance, error) {
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: degree, RequireConnected: true}, rng)
	if err != nil {
		return nil, err
	}
	fg := graph.Flatten(net.G)
	c, err := cluster.RunCtx(context.Background(), net.G, cluster.Options{K: k, Affiliation: aff, Priority: prio, Flat: fg}, nil)
	if err != nil {
		return nil, err
	}
	return &Instance{Net: net, Flat: fg, C: c}, nil
}

// Connect runs core.Connect for algo on the instance's clustering, over
// the instance's snapshot.
func (inst *Instance) Connect(ctx context.Context, algo gateway.Algorithm) (*core.Output, error) {
	return core.Connect(ctx, inst.Net.G, inst.Flat, inst.C, algo, nil, nil)
}

// CDSSweep measures mean CDS size (clusterheads + gateways) per
// algorithm across node counts: one subfigure of Figures 5/6. Trials
// run on the worker pool; the result is identical for any worker count.
func CDSSweep(ctx context.Context, cfg SweepConfig) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID:     fmt.Sprintf("cds-k%d-d%g", cfg.K, cfg.Degree),
		Title:  fmt.Sprintf("Size of CDS, k=%d, D=%g", cfg.K, cfg.Degree),
		XLabel: "Number of nodes",
		YLabel: "Size of CDS",
	}
	series := make([]Series, len(cfg.Algorithms))
	for i, algo := range cfg.Algorithms {
		series[i].Label = algo.String()
	}
	for _, n := range cfg.Ns {
		samples := make([]*metrics.Sample, len(cfg.Algorithms))
		for i := range samples {
			samples[i] = &metrics.Sample{}
		}
		r := cfg.runner(fmt.Sprintf("cds/d=%g/k=%d/n=%d", cfg.Degree, cfg.K, n))
		_, err := RunTrials(ctx, r,
			func(ctx context.Context, _ int, rng *rand.Rand) ([]float64, error) {
				inst, err := NewInstance(n, cfg.Degree, cfg.K, cfg.Affiliation, cfg.Priority, rng)
				if err != nil {
					return nil, err
				}
				// Every algorithm connects the same clustering, over the
				// snapshot it was elected on.
				vals := make([]float64, len(cfg.Algorithms))
				for i, algo := range cfg.Algorithms {
					out, err := inst.Connect(ctx, algo)
					if err != nil {
						return nil, err
					}
					vals[i] = float64(out.Gateway.CDSSize())
				}
				return vals, nil
			},
			func(_ int, vals []float64) (bool, error) {
				for i := range samples {
					samples[i].Add(vals[i])
				}
				return allDone(cfg.Stop, samples), nil
			})
		if err != nil {
			return nil, fmt.Errorf("experiment: N=%d: %w", n, err)
		}
		for i := range samples {
			series[i].Points = append(series[i].Points, Point{
				N:    n,
				Mean: samples[i].Mean(),
				CI:   samples[i].CI(cfg.Stop.Level),
				Runs: samples[i].N(),
			})
		}
	}
	fig.Series = series
	return fig, nil
}

// allDone applies the stopping rule jointly: sampling continues until
// every algorithm's estimate meets the rule (all algorithms see the same
// instances).
func allDone(rule metrics.StopRule, samples []*metrics.Sample) bool {
	for _, s := range samples {
		if !rule.Done(s) {
			return false
		}
	}
	return true
}

// HeadsAndCDSSweep measures, for one k, the mean number of clusterheads
// and the mean CDS size under AC-LMST (Figure 7's two panels share this).
func HeadsAndCDSSweep(ctx context.Context, cfg SweepConfig) (heads, cdsSize Series, err error) {
	cfg = cfg.withDefaults()
	heads.Label = fmt.Sprintf("k=%d", cfg.K)
	cdsSize.Label = heads.Label
	for _, n := range cfg.Ns {
		hs, cs := &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("heads/d=%g/k=%d/n=%d", cfg.Degree, cfg.K, n))
		_, rerr := RunTrials(ctx, r,
			func(ctx context.Context, _ int, rng *rand.Rand) ([2]float64, error) {
				inst, err := NewInstance(n, cfg.Degree, cfg.K, cfg.Affiliation, cfg.Priority, rng)
				if err != nil {
					return [2]float64{}, err
				}
				out, err := inst.Connect(ctx, gateway.ACLMST)
				if err != nil {
					return [2]float64{}, err
				}
				return [2]float64{float64(inst.C.NumClusters()), float64(out.Gateway.CDSSize())}, nil
			},
			func(_ int, v [2]float64) (bool, error) {
				hs.Add(v[0])
				cs.Add(v[1])
				return allDone(cfg.Stop, []*metrics.Sample{hs, cs}), nil
			})
		if rerr != nil {
			return heads, cdsSize, fmt.Errorf("experiment: N=%d: %w", n, rerr)
		}
		heads.Points = append(heads.Points, Point{N: n, Mean: hs.Mean(), CI: hs.CI(cfg.Stop.Level), Runs: hs.N()})
		cdsSize.Points = append(cdsSize.Points, Point{N: n, Mean: cs.Mean(), CI: cs.CI(cfg.Stop.Level), Runs: cs.N()})
	}
	return heads, cdsSize, nil
}
