package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/ncr"
	"repro/internal/proto"
	"repro/internal/udg"
)

// Fig5 reproduces Figure 5: CDS size vs N for the five algorithms in
// sparse networks (D = 6), one subfigure per k ∈ {1, 2, 3, 4}.
func Fig5(ctx context.Context, cfg RunConfig) ([]*Figure, error) {
	return cdsFigure(ctx, "5", 6, cfg)
}

// Fig6 reproduces Figure 6: the same comparison in dense networks
// (D = 10).
func Fig6(ctx context.Context, cfg RunConfig) ([]*Figure, error) {
	return cdsFigure(ctx, "6", 10, cfg)
}

func cdsFigure(ctx context.Context, id string, degree float64, cfg RunConfig) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	subID := []string{"a", "b", "c", "d"}
	var figs []*Figure
	for i, k := range []int{1, 2, 3, 4} {
		fig, err := CDSSweep(ctx, SweepConfig{RunConfig: cfg, Degree: degree, K: k})
		if err != nil {
			return nil, err
		}
		fig.ID = fmt.Sprintf("%s%s", id, subID[i])
		fig.Title = fmt.Sprintf("Figure %s(%s): CDS size, k=%d, D=%g", id, subID[i], k, degree)
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig7 reproduces Figure 7 with AC-LMST (the paper says "using LMSTGA"):
// (a) number of clusterheads vs N and (b) CDS size vs N, one series per
// k ∈ {1, 2, 3, 4}, D = 6.
func Fig7(ctx context.Context, cfg RunConfig) (*Figure, *Figure, error) {
	cfg = cfg.withDefaults()
	headsFig := &Figure{
		ID:     "7a",
		Title:  "Figure 7(a): Number of clusterheads (D=6, AC-LMST)",
		XLabel: "Number of nodes",
		YLabel: "Number of clusterheads",
	}
	cdsFig := &Figure{
		ID:     "7b",
		Title:  "Figure 7(b): Number of nodes in CDS (D=6, AC-LMST)",
		XLabel: "Number of nodes",
		YLabel: "Number of CDS",
	}
	for _, k := range []int{1, 2, 3, 4} {
		heads, cdsSize, err := HeadsAndCDSSweep(ctx, SweepConfig{RunConfig: cfg, Degree: 6, K: k})
		if err != nil {
			return nil, nil, err
		}
		headsFig.Series = append(headsFig.Series, heads)
		cdsFig.Series = append(cdsFig.Series, cdsSize)
	}
	return headsFig, cdsFig, nil
}

// Overhead is the future-work experiment the paper sketches in its
// conclusion ("communication overhead increases with the growth of the
// value of k"): mean radio transmissions of the complete distributed
// AC-LMST protocol per k, at fixed N and D.
func Overhead(ctx context.Context, cfg RunConfig, n int, degree float64, ks []int, runs int) (*Figure, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 3, 4}
	}
	fig := &Figure{
		ID:     "overhead",
		Title:  fmt.Sprintf("Protocol transmissions vs k (N=%d, D=%g, AC-LMST)", n, degree),
		XLabel: "k",
		YLabel: "Transmissions",
	}
	series := Series{Label: "AC-LMST protocol"}
	for _, k := range ks {
		s := &metrics.Sample{}
		r := cfg.runner(fmt.Sprintf("overhead/n=%d/d=%g/k=%d", n, degree, k))
		_, err := RunTrials(ctx, r,
			func(_ context.Context, _ int, rng *rand.Rand) (float64, error) {
				inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
				if err != nil {
					return 0, err
				}
				res, err := proto.Run(inst.Net.G, proto.Options{K: k, Rule: ncr.RuleANCR, UseLMST: true})
				if err != nil {
					return 0, err
				}
				return float64(res.Total.Transmissions), nil
			},
			func(idx int, v float64) (bool, error) {
				s.Add(v)
				return idx+1 >= runs, nil
			})
		if err != nil {
			return nil, err
		}
		series.Points = append(series.Points, Point{N: k, Mean: s.Mean(), CI: s.CI(0.90), Runs: s.N()})
	}
	fig.Series = []Series{series}
	return fig, nil
}

// MaintenanceResult summarizes the §3.3 dynamic-maintenance experiment.
type MaintenanceResult struct {
	N, K       int
	Departures int
	// Share of departures by role.
	MemberFrac, GatewayFrac, HeadFrac float64
	// Mean repair scope per departure of each role.
	MeanReclustered     float64 // nodes re-clustered per head departure
	MeanReselectedHeads float64 // heads re-running selection per gateway departure
}

// maintTrial is the per-run tally one maintenance trial reports.
type maintTrial struct {
	member, gateway, head     int
	reclusterSum, reselectSum float64
	departures                int
}

// Maintenance measures how often each repair class occurs and how large
// the repairs are when random nodes depart one by one (until half the
// network is gone), averaged over runs.
func Maintenance(ctx context.Context, cfg RunConfig, n int, degree float64, k, runs int) (*MaintenanceResult, error) {
	out := &MaintenanceResult{N: n, K: k}
	var memberN, gatewayN, headN int
	var reclusterSum, reselectSum float64
	r := cfg.runner(fmt.Sprintf("maintenance/n=%d/d=%g/k=%d", n, degree, k))
	_, err := RunTrials(ctx, r,
		func(ctx context.Context, _ int, rng *rand.Rand) (maintTrial, error) {
			var t maintTrial
			inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
			if err != nil {
				return t, err
			}
			built, err := inst.Connect(ctx, gateway.ACLMST)
			if err != nil {
				return t, err
			}
			m := mobility.NewMaintainerFrom(inst.Net.G, built)
			order := rng.Perm(n)
			for _, node := range order[:n/2] {
				reps, err := m.ApplyBatch(ctx, []mobility.Event{{Kind: mobility.EventLeave, Node: node}})
				if err != nil {
					return t, err
				}
				rep := reps[0]
				t.departures++
				switch rep.Role {
				case mobility.RoleMember:
					t.member++
				case mobility.RoleGateway:
					t.gateway++
					t.reselectSum += float64(rep.ReselectedHeads)
				case mobility.RoleHead:
					t.head++
					t.reclusterSum += float64(rep.ReclusteredNodes)
				}
			}
			return t, nil
		},
		func(idx int, t maintTrial) (bool, error) {
			out.Departures += t.departures
			memberN += t.member
			gatewayN += t.gateway
			headN += t.head
			reclusterSum += t.reclusterSum
			reselectSum += t.reselectSum
			return idx+1 >= runs, nil
		})
	if err != nil {
		return nil, err
	}
	total := float64(out.Departures)
	if total > 0 {
		out.MemberFrac = float64(memberN) / total
		out.GatewayFrac = float64(gatewayN) / total
		out.HeadFrac = float64(headN) / total
	}
	if headN > 0 {
		out.MeanReclustered = reclusterSum / float64(headN)
	}
	if gatewayN > 0 {
		out.MeanReselectedHeads = reselectSum / float64(gatewayN)
	}
	return out, nil
}

// MaintenanceFigure renders the §3.3 maintenance experiment (N=100,
// D=6, 10 runs) as a figure over k, so it shares the table/CSV/JSON
// output paths with the paper's figures.
func MaintenanceFigure(ctx context.Context, cfg RunConfig) (*Figure, error) {
	fig := &Figure{
		ID:     "maintenance",
		Title:  "Dynamic maintenance: departure roles and repair scope (N=100, D=6)",
		XLabel: "k",
		YLabel: "share / nodes",
	}
	series := []Series{
		{Label: "member frac"}, {Label: "gateway frac"}, {Label: "head frac"},
		{Label: "reclustered per head"}, {Label: "reselected heads per gateway"},
	}
	for _, k := range []int{1, 2, 3} {
		res, err := Maintenance(ctx, cfg, 100, 6, k, 10)
		if err != nil {
			return nil, err
		}
		vals := []float64{res.MemberFrac, res.GatewayFrac, res.HeadFrac,
			res.MeanReclustered, res.MeanReselectedHeads}
		for i := range series {
			series[i].Points = append(series[i].Points, Point{N: k, Mean: vals[i], Runs: res.Departures})
		}
	}
	fig.Series = series
	return fig, nil
}

// AblationAffiliation compares CDS size under the three member
// affiliation rules (paper §3 rules (1)–(3)) with AC-LMST.
func AblationAffiliation(ctx context.Context, cfg RunConfig, degree float64, k int) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID:     "ablation-affiliation",
		Title:  fmt.Sprintf("Affiliation rule ablation (D=%g, k=%d, AC-LMST)", degree, k),
		XLabel: "Number of nodes",
		YLabel: "Size of CDS",
	}
	for _, aff := range []cluster.Affiliation{cluster.AffiliationID, cluster.AffiliationDistance, cluster.AffiliationSize} {
		series := Series{Label: aff.String()}
		for _, nn := range DefaultNs {
			s := &metrics.Sample{}
			r := cfg.runner(fmt.Sprintf("ablation-aff/%s/d=%g/k=%d/n=%d", aff, degree, k, nn))
			_, err := RunTrials(ctx, r,
				func(ctx context.Context, _ int, rng *rand.Rand) (float64, error) {
					inst, err := NewInstance(nn, degree, k, aff, nil, rng)
					if err != nil {
						return 0, err
					}
					out, err := inst.Connect(ctx, gateway.ACLMST)
					if err != nil {
						return 0, err
					}
					return float64(out.Gateway.CDSSize()), nil
				},
				func(_ int, v float64) (bool, error) {
					s.Add(v)
					return cfg.Stop.Done(s), nil
				})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{N: nn, Mean: s.Mean(), CI: s.CI(cfg.Stop.Level), Runs: s.N()})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationPriority compares CDS size under different clusterhead
// election priorities (lowest ID vs highest degree), the §3.3 power-aware
// discussion's knob.
func AblationPriority(ctx context.Context, cfg RunConfig, degree float64, k int) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID:     "ablation-priority",
		Title:  fmt.Sprintf("Election priority ablation (D=%g, k=%d, AC-LMST)", degree, k),
		XLabel: "Number of nodes",
		YLabel: "Size of CDS",
	}
	for _, label := range []string{"lowest-id", "highest-degree"} {
		series := Series{Label: label}
		for _, nn := range DefaultNs {
			s := &metrics.Sample{}
			r := cfg.runner(fmt.Sprintf("ablation-prio/%s/d=%g/k=%d/n=%d", label, degree, k, nn))
			_, err := RunTrials(ctx, r,
				func(ctx context.Context, _ int, rng *rand.Rand) (float64, error) {
					// Priority may depend on the generated graph (degree), so
					// build the instance in two steps.
					net, err := genConnected(nn, degree, rng)
					if err != nil {
						return 0, err
					}
					var prio cluster.Priority
					if label == "highest-degree" {
						prio = cluster.NewHighestDegree(net.G)
					}
					out, err := core.BuildCtx(ctx, net.G, core.Options{K: k, Algorithm: gateway.ACLMST, Priority: prio})
					if err != nil {
						return 0, err
					}
					return float64(out.Gateway.CDSSize()), nil
				},
				func(_ int, v float64) (bool, error) {
					s.Add(v)
					return cfg.Stop.Done(s), nil
				})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{N: nn, Mean: s.Mean(), CI: s.CI(cfg.Stop.Level), Runs: s.N()})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationKeepRule compares LMSTGA's union vs intersection link-keeping
// (the G₀ vs G₀⁻ design choice) under A-NCR.
func AblationKeepRule(ctx context.Context, cfg RunConfig, degree float64, k int) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{
		ID:     "ablation-keep",
		Title:  fmt.Sprintf("LMST keep-rule ablation (D=%g, k=%d, AC-LMST)", degree, k),
		XLabel: "Number of nodes",
		YLabel: "Size of CDS",
	}
	for _, keep := range []gateway.KeepRule{gateway.KeepUnion, gateway.KeepIntersection} {
		series := Series{Label: keep.String()}
		for _, nn := range DefaultNs {
			s := &metrics.Sample{}
			// Same key for both rules: paired instances make the
			// union-vs-intersection comparison exact per network.
			r := cfg.runner(fmt.Sprintf("ablation-keep/d=%g/k=%d/n=%d", degree, k, nn))
			_, err := RunTrials(ctx, r,
				func(_ context.Context, _ int, rng *rand.Rand) (float64, error) {
					inst, err := NewInstance(nn, degree, k, cluster.AffiliationID, nil, rng)
					if err != nil {
						return 0, err
					}
					sel := ncr.ANCR(inst.Net.G, inst.C)
					return float64(gateway.LMST(inst.Net.G, inst.C, sel, gateway.ACLMST, keep).CDSSize()), nil
				},
				func(_ int, v float64) (bool, error) {
					s.Add(v)
					return cfg.Stop.Done(s), nil
				})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{N: nn, Mean: s.Mean(), CI: s.CI(cfg.Stop.Level), Runs: s.N()})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// AblationFigures bundles the three ablations in khopsim's order.
func AblationFigures(ctx context.Context, cfg RunConfig) ([]*Figure, error) {
	aff, err := AblationAffiliation(ctx, cfg, 6, 2)
	if err != nil {
		return nil, err
	}
	prio, err := AblationPriority(ctx, cfg, 6, 2)
	if err != nil {
		return nil, err
	}
	keep, err := AblationKeepRule(ctx, cfg, 6, 2)
	if err != nil {
		return nil, err
	}
	return []*Figure{aff, prio, keep}, nil
}

func genConnected(n int, degree float64, rng *rand.Rand) (*udg.Network, error) {
	return udg.Generate(udg.Config{N: n, AvgDegree: degree, RequireConnected: true}, rng)
}
