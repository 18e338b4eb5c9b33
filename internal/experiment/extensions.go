package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gateway"
	"repro/internal/maxmin"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/routing"
	"repro/internal/udg"
)

// BroadcastSavings measures the motivating application: transmissions of
// CDS-confined broadcast relative to blind flooding, per k, at the given
// N and D (mean over runs, random sources).
func BroadcastSavings(ctx context.Context, cfg RunConfig, n int, degree float64, ks []int, runs int) (*Figure, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4}
	}
	fig := &Figure{
		ID:     "broadcast",
		Title:  fmt.Sprintf("Broadcast transmissions (N=%d, D=%g, AC-LMST)", n, degree),
		XLabel: "k",
		YLabel: "Transmissions",
	}
	cdsSeries := Series{Label: "CDS broadcast"}
	blindSeries := Series{Label: "blind flooding"}
	for _, k := range ks {
		cdsS, blindS := &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("broadcast/n=%d/d=%g/k=%d", n, degree, k))
		_, err := RunTrials(ctx, r,
			func(ctx context.Context, _ int, rng *rand.Rand) ([2]float64, error) {
				inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
				if err != nil {
					return [2]float64{}, err
				}
				out, err := inst.Connect(ctx, gateway.ACLMST)
				if err != nil {
					return [2]float64{}, err
				}
				src := rng.Intn(n)
				blind, cds, _ := broadcast.Compare(inst.Net.G, inst.C, out.Gateway, src)
				if !cds.Covered {
					return [2]float64{}, fmt.Errorf("CDS broadcast failed to cover (k=%d)", k)
				}
				return [2]float64{float64(cds.Transmissions), float64(blind.Transmissions)}, nil
			},
			func(idx int, v [2]float64) (bool, error) {
				cdsS.Add(v[0])
				blindS.Add(v[1])
				return idx+1 >= runs, nil
			})
		if err != nil {
			return nil, err
		}
		cdsSeries.Points = append(cdsSeries.Points, Point{N: k, Mean: cdsS.Mean(), CI: cdsS.CI(0.9), Runs: cdsS.N()})
		blindSeries.Points = append(blindSeries.Points, Point{N: k, Mean: blindS.Mean(), CI: blindS.CI(0.9), Runs: blindS.N()})
	}
	fig.Series = []Series{blindSeries, cdsSeries}
	return fig, nil
}

// RoutingStretch measures hierarchical routing's path stretch and
// routing-table footprint per k.
func RoutingStretch(ctx context.Context, cfg RunConfig, n int, degree float64, ks []int, runs, pairs int) (*Figure, *Figure, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4}
	}
	stretchFig := &Figure{
		ID:     "routing-stretch",
		Title:  fmt.Sprintf("Hierarchical routing stretch (N=%d, D=%g, AC-LMST)", n, degree),
		XLabel: "k",
		YLabel: "Mean path stretch",
	}
	tableFig := &Figure{
		ID:     "routing-tables",
		Title:  fmt.Sprintf("Routing table entries, hierarchical vs flat (N=%d, D=%g)", n, degree),
		XLabel: "k",
		YLabel: "Entries (network total)",
	}
	stretchSeries := Series{Label: "stretch"}
	hierSeries := Series{Label: "hierarchical"}
	flatSeries := Series{Label: "flat link-state"}
	for _, k := range ks {
		st, hi, fl := &metrics.Sample{}, &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("routing/n=%d/d=%g/k=%d", n, degree, k))
		type routingTrial struct {
			stretch    *metrics.Sample
			flat, hier float64
		}
		_, err := RunTrials(ctx, r,
			func(ctx context.Context, _ int, rng *rand.Rand) (routingTrial, error) {
				var t routingTrial
				inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
				if err != nil {
					return t, err
				}
				out, err := inst.Connect(ctx, gateway.ACLMST)
				if err != nil {
					return t, err
				}
				router := routing.New(inst.Net.G, inst.C, out.Gateway)
				t.stretch = &metrics.Sample{}
				for p := 0; p < pairs; p++ {
					src, dst := rng.Intn(n), rng.Intn(n)
					s, err := router.Stretch(src, dst)
					if err != nil {
						return t, err
					}
					t.stretch.Add(s)
				}
				flat, hier := router.TableSizes()
				t.flat, t.hier = float64(flat), float64(hier)
				return t, nil
			},
			func(idx int, t routingTrial) (bool, error) {
				// Per-pair observations merge in trial order, matching
				// what sequential Adds would have produced.
				st.Merge(t.stretch)
				fl.Add(t.flat)
				hi.Add(t.hier)
				return idx+1 >= runs, nil
			})
		if err != nil {
			return nil, nil, err
		}
		stretchSeries.Points = append(stretchSeries.Points, Point{N: k, Mean: st.Mean(), CI: st.CI(0.9), Runs: st.N()})
		hierSeries.Points = append(hierSeries.Points, Point{N: k, Mean: hi.Mean(), CI: hi.CI(0.9), Runs: hi.N()})
		flatSeries.Points = append(flatSeries.Points, Point{N: k, Mean: fl.Mean(), CI: fl.CI(0.9), Runs: fl.N()})
	}
	stretchFig.Series = []Series{stretchSeries}
	tableFig.Series = []Series{flatSeries, hierSeries}
	return stretchFig, tableFig, nil
}

// RoutingFigures bundles RoutingStretch's two panels at khopsim's
// defaults (N=100, D=7, 10 runs × 50 pairs).
func RoutingFigures(ctx context.Context, cfg RunConfig) ([]*Figure, error) {
	stretch, tables, err := RoutingStretch(ctx, cfg, 100, 7, nil, 10, 50)
	if err != nil {
		return nil, err
	}
	return []*Figure{stretch, tables}, nil
}

// EnergyLifetime measures time-to-first-death under static lowest-ID
// clustering vs energy-rotated clustering (§3.3), per k.
func EnergyLifetime(ctx context.Context, cfg RunConfig, n int, degree float64, ks []int, runs int) (*Figure, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3}
	}
	fig := &Figure{
		ID:     "energy",
		Title:  fmt.Sprintf("Network lifetime, static vs rotated clusterheads (N=%d, D=%g)", n, degree),
		XLabel: "k",
		YLabel: "First-death epoch",
	}
	model := energy.DefaultModel()
	for _, policy := range []energy.Policy{energy.PolicyStatic, energy.PolicyRotate} {
		series := Series{Label: policy.String()}
		for _, k := range ks {
			s := &metrics.Sample{}
			// Key excludes the policy: both policies face identical
			// networks per trial index (paired comparison).
			r := cfg.runner(fmt.Sprintf("energy/n=%d/d=%g/k=%d", n, degree, k))
			_, err := RunTrials(ctx, r,
				func(_ context.Context, _ int, rng *rand.Rand) (float64, error) {
					inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
					if err != nil {
						return 0, err
					}
					lt, err := energy.Lifetime(inst.Net.G, k, gateway.ACLMST, model, policy, 1000)
					if err != nil {
						return 0, err
					}
					return float64(lt), nil
				},
				func(idx int, v float64) (bool, error) {
					s.Add(v)
					return idx+1 >= runs, nil
				})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{N: k, Mean: s.Mean(), CI: s.CI(0.9), Runs: s.N()})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Stability quantifies the introduction's "combinatorially stable
// system" argument: after every node moves for the given time under
// random waypoint, what fraction of clusterheads survive re-clustering
// and what fraction of nodes keep their head, per k.
func Stability(ctx context.Context, cfg RunConfig, n int, degree float64, ks []int, moveTime, speed float64, runs int) (*Figure, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4}
	}
	fig := &Figure{
		ID: "stability",
		Title: fmt.Sprintf("Structure stability under movement (N=%d, D=%g, speed=%g, t=%g)",
			n, degree, speed, moveTime),
		XLabel: "k",
		YLabel: "Surviving fraction",
	}
	headSeries := Series{Label: "heads retained"}
	memberSeries := Series{Label: "membership retained"}
	for _, k := range ks {
		hs, ms := &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("stability/n=%d/d=%g/k=%d/t=%g/v=%g", n, degree, k, moveTime, speed))
		type stabilityTrial struct {
			heads, members float64
			connected      bool
		}
		_, err := RunTrials(ctx, r,
			func(_ context.Context, _ int, rng *rand.Rand) (stabilityTrial, error) {
				var t stabilityTrial
				inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
				if err != nil {
					return t, err
				}
				w := mobility.Waypoint{Field: inst.Net.Field, MinSpeed: speed, MaxSpeed: speed}
				st := w.NewState(inst.Net.Pos, rng)
				w.Step(st, moveTime, rng)
				after := udg.Build(st.Pos, inst.Net.Range)
				if !after.Connected() {
					return t, nil // stability is only meaningful on connected snapshots
				}
				t.connected = true
				c2 := cluster.Run(after, cluster.Options{K: k})
				isHead2 := make(map[int]bool, len(c2.Heads))
				for _, h := range c2.Heads {
					isHead2[h] = true
				}
				kept := 0
				for _, h := range inst.C.Heads {
					if isHead2[h] {
						kept++
					}
				}
				t.heads = float64(kept) / float64(len(inst.C.Heads))
				same := 0
				for v := range c2.Head {
					if c2.Head[v] == inst.C.Head[v] {
						same++
					}
				}
				t.members = float64(same) / float64(n)
				return t, nil
			},
			func(idx int, t stabilityTrial) (bool, error) {
				if t.connected {
					hs.Add(t.heads)
					ms.Add(t.members)
				}
				return idx+1 >= runs, nil
			})
		if err != nil {
			return nil, err
		}
		headSeries.Points = append(headSeries.Points, Point{N: k, Mean: hs.Mean(), CI: hs.CI(0.9), Runs: hs.N()})
		memberSeries.Points = append(memberSeries.Points, Point{N: k, Mean: ms.Mean(), CI: ms.CI(0.9), Runs: ms.N()})
	}
	fig.Series = []Series{headSeries, memberSeries}
	return fig, nil
}

// ClusteringComparison pits the paper's iterative lowest-ID k-hop
// clustering against Max-Min d-cluster formation [2] on identical
// instances: head counts and the CDS size that AC-LMST builds on top of
// each.
func ClusteringComparison(ctx context.Context, cfg RunConfig, degree float64, k int) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID:     "clustering-comparison",
		Title:  fmt.Sprintf("Lowest-ID k-hop clustering vs Max-Min d-cluster (D=%g, k=d=%d, AC-LMST)", degree, k),
		XLabel: "Number of nodes",
		YLabel: "Size of CDS",
	}
	lowID := Series{Label: "lowest-id CDS"}
	mm := Series{Label: "max-min CDS"}
	lowHeads := Series{Label: "lowest-id heads"}
	mmHeads := Series{Label: "max-min heads"}
	for _, n := range DefaultNs {
		ls, msamp := &metrics.Sample{}, &metrics.Sample{}
		lh, mh := &metrics.Sample{}, &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("comparison/d=%g/k=%d/n=%d", degree, k, n))
		_, err := RunTrials(ctx, r,
			func(ctx context.Context, _ int, rng *rand.Rand) ([4]float64, error) {
				inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
				if err != nil {
					return [4]float64{}, err
				}
				mmC, err := maxmin.RunPar(ctx, inst.Net.G, inst.Flat, k, nil, nil)
				if err != nil {
					return [4]float64{}, err
				}
				low, err := inst.Connect(ctx, gateway.ACLMST)
				if err != nil {
					return [4]float64{}, err
				}
				mm, err := core.Connect(ctx, inst.Net.G, inst.Flat, mmC, gateway.ACLMST, nil, nil)
				if err != nil {
					return [4]float64{}, err
				}
				return [4]float64{
					float64(low.Gateway.CDSSize()),
					float64(inst.C.NumClusters()),
					float64(mm.Gateway.CDSSize()),
					float64(mmC.NumClusters()),
				}, nil
			},
			func(_ int, v [4]float64) (bool, error) {
				ls.Add(v[0])
				lh.Add(v[1])
				msamp.Add(v[2])
				mh.Add(v[3])
				return allDone(cfg.Stop, []*metrics.Sample{ls, msamp}), nil
			})
		if err != nil {
			return nil, err
		}
		lowID.Points = append(lowID.Points, Point{N: n, Mean: ls.Mean(), CI: ls.CI(cfg.Stop.Level), Runs: ls.N()})
		mm.Points = append(mm.Points, Point{N: n, Mean: msamp.Mean(), CI: msamp.CI(cfg.Stop.Level), Runs: msamp.N()})
		lowHeads.Points = append(lowHeads.Points, Point{N: n, Mean: lh.Mean(), CI: lh.CI(cfg.Stop.Level), Runs: lh.N()})
		mmHeads.Points = append(mmHeads.Points, Point{N: n, Mean: mh.Mean(), CI: mh.CI(cfg.Stop.Level), Runs: mh.N()})
	}
	fig.Series = []Series{lowID, mm, lowHeads, mmHeads}
	return fig, nil
}
