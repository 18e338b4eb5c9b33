package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/udg"
)

// ChurnResult summarizes the full-churn maintenance experiment: a random
// arrival/departure/movement mix applied in batches through the
// incremental maintainer, with repair locality measured against the cost
// and outcome of rebuilding from scratch.
type ChurnResult struct {
	N, K      int
	Events    int
	BatchSize int

	// Event mix actually drawn.
	LeaveFrac, JoinFrac, MoveFrac float64

	// Repair locality: mean per-event repair scope...
	MeanReclustered     float64
	MeanReselectedHeads float64
	// ...and the headline ratio: nodes re-clustered by incremental
	// repair over nodes a from-scratch rebuild would touch (every alive
	// node, per event). 1.0 means repairs are as expensive as rebuilds;
	// the paper's locality argument predicts ≪ 1.
	LocalityFrac float64

	// Gateway coalescing: selection re-runs actually performed vs the
	// re-runs per-event application would have paid.
	GatewayRuns      int
	GatewayRunsSaved int

	// Structure drift: mean CDS size of the maintained structure after
	// the trace vs a from-scratch rebuild of the same final topology
	// (counting only alive nodes), and the mean signed difference.
	FinalCDS, RebuildCDS float64
}

// churnState tracks the simulated deployment while a trace is generated:
// node positions move, nodes switch off and back on, and neighbor lists
// are recomputed from the unit-disk rule at the current positions.
type churnState struct {
	pos   []geom.Point
	alive []bool
	rng   *rand.Rand
	net   *udg.Network
}

func (s *churnState) neighbors(v int) []int {
	var nbrs []int
	for w := range s.pos {
		if w != v && s.alive[w] && s.pos[v].Dist(s.pos[w]) <= s.net.Range {
			nbrs = append(nbrs, w)
		}
	}
	return nbrs
}

func (s *churnState) pick(alive bool) int {
	var cand []int
	for v, a := range s.alive {
		if a == alive {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[s.rng.Intn(len(cand))]
}

// nextEvent draws one churn event and advances the tracked deployment so
// later events of the same batch stay consistent (a node that left
// cannot be listed as a neighbor of a later join).
func (s *churnState) nextEvent() mobility.Event {
	aliveN := 0
	for _, a := range s.alive {
		if a {
			aliveN++
		}
	}
	roll := s.rng.Float64()
	switch {
	case roll < 0.4 && aliveN > len(s.alive)/2:
		v := s.pick(true)
		s.alive[v] = false
		return mobility.Event{Kind: mobility.EventLeave, Node: v}
	case roll < 0.7:
		if v := s.pick(false); v >= 0 {
			s.alive[v] = true
			s.pos[v] = udg.RandomPlacement(1, s.net.Field, s.rng)[0]
			return mobility.Event{Kind: mobility.EventJoin, Node: v, Neighbors: s.neighbors(v)}
		}
		fallthrough
	default:
		v := s.pick(true)
		s.pos[v] = udg.RandomPlacement(1, s.net.Field, s.rng)[0]
		return mobility.Event{Kind: mobility.EventMove, Node: v, Neighbors: s.neighbors(v)}
	}
}

// churnTrial is the per-run tally one churn trial reports.
type churnTrial struct {
	events, leaves, joins, moves int
	reclusterSum, reselectSum    float64
	aliveSum                     float64
	gatewayRuns, gatewaySaved    int
	finalCDS, rebuildCDS         float64
}

// Churn runs the full-churn workload: events random arrivals, departures
// and movements applied through mobility.ApplyBatch in batches of
// batchSize, averaged over runs. It reports repair locality (nodes
// re-clustered, heads re-selected, and both relative to rebuild cost),
// the gateway re-selections saved by batching, and the CDS drift of the
// maintained structure versus a from-scratch rebuild of the final
// topology.
func Churn(ctx context.Context, cfg RunConfig, n int, degree float64, k, events, batchSize, runs int) (*ChurnResult, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	out := &ChurnResult{N: n, K: k, BatchSize: batchSize}
	var leaves, joins, moves int
	var reclusterSum, reselectSum, aliveSum float64
	var finalCDSSum, rebuildCDSSum float64
	r := cfg.runner(fmt.Sprintf("churn/n=%d/d=%g/k=%d/e=%d/b=%d", n, degree, k, events, batchSize))
	consumed, err := RunTrials(ctx, r,
		func(ctx context.Context, _ int, rng *rand.Rand) (churnTrial, error) {
			var t churnTrial
			inst, err := NewInstance(n, degree, k, cluster.AffiliationID, nil, rng)
			if err != nil {
				return t, err
			}
			built, err := inst.Connect(ctx, gateway.ACLMST)
			if err != nil {
				return t, err
			}
			m := mobility.NewMaintainerFrom(inst.Net.G, built)
			st := &churnState{
				pos:   append([]geom.Point(nil), inst.Net.Pos...),
				alive: make([]bool, n),
				rng:   rng,
				net:   inst.Net,
			}
			for v := range st.alive {
				st.alive[v] = true
			}
			for done := 0; done < events; {
				batch := make([]mobility.Event, 0, batchSize)
				for len(batch) < batchSize && done+len(batch) < events {
					batch = append(batch, st.nextEvent())
				}
				reps, err := m.ApplyBatch(ctx, batch)
				if err != nil {
					return t, fmt.Errorf("churn: %w", err)
				}
				aliveNow := 0
				for _, a := range st.alive {
					if a {
						aliveNow++
					}
				}
				for _, rep := range reps {
					t.events++
					switch rep.Kind {
					case mobility.EventLeave:
						t.leaves++
					case mobility.EventJoin:
						t.joins++
					case mobility.EventMove:
						t.moves++
					}
					t.reclusterSum += float64(rep.ReclusteredNodes)
					t.reselectSum += float64(rep.ReselectedHeads)
					t.aliveSum += float64(aliveNow)
				}
				if len(reps) > 0 {
					t.gatewayRuns += reps[0].BatchGatewayRuns
					t.gatewaySaved += reps[0].BatchGatewaySaved
				}
				done += len(batch)
			}
			t.finalCDS = float64(len(m.Res.CDS))
			rebuild, err := rebuildCDSSize(ctx, st, k)
			if err != nil {
				return t, err
			}
			t.rebuildCDS = float64(rebuild)
			return t, nil
		},
		func(idx int, t churnTrial) (bool, error) {
			out.Events += t.events
			leaves += t.leaves
			joins += t.joins
			moves += t.moves
			reclusterSum += t.reclusterSum
			reselectSum += t.reselectSum
			aliveSum += t.aliveSum
			out.GatewayRuns += t.gatewayRuns
			out.GatewayRunsSaved += t.gatewaySaved
			finalCDSSum += t.finalCDS
			rebuildCDSSum += t.rebuildCDS
			return idx+1 >= runs, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiment: churn: %w", err)
	}
	total := float64(out.Events)
	if total > 0 {
		out.LeaveFrac = float64(leaves) / total
		out.JoinFrac = float64(joins) / total
		out.MoveFrac = float64(moves) / total
		out.MeanReclustered = reclusterSum / total
		out.MeanReselectedHeads = reselectSum / total
	}
	if aliveSum > 0 {
		out.LocalityFrac = reclusterSum / aliveSum
	}
	if consumed > 0 {
		out.FinalCDS = finalCDSSum / float64(consumed)
		out.RebuildCDS = rebuildCDSSum / float64(consumed)
	}
	return out, nil
}

// ChurnFigure renders the full-churn workload at khopsim's defaults
// (N=100, D=6, 60 events in batches of 5, 10 runs) as a figure over k,
// sharing the table/CSV/JSON output paths with the paper's figures.
func ChurnFigure(ctx context.Context, cfg RunConfig) (*Figure, error) {
	const events, batch, runs = 60, 5, 10
	fig := &Figure{
		ID:     "churn",
		Title:  fmt.Sprintf("Full churn: repair locality and CDS drift (N=100, D=6, %d events, batches of %d)", events, batch),
		XLabel: "k",
		YLabel: "per-event / per-trace value",
	}
	series := []Series{
		{Label: "leave frac"}, {Label: "join frac"}, {Label: "move frac"},
		{Label: "reclustered per event"}, {Label: "reselected heads per event"},
		{Label: "locality frac"},
		{Label: "gateway runs"}, {Label: "gateway runs saved"},
		{Label: "final CDS"}, {Label: "rebuilt CDS"},
	}
	for _, k := range []int{1, 2, 3} {
		res, err := Churn(ctx, cfg, 100, 6, k, events, batch, runs)
		if err != nil {
			return nil, err
		}
		vals := []float64{
			res.LeaveFrac, res.JoinFrac, res.MoveFrac,
			res.MeanReclustered, res.MeanReselectedHeads,
			res.LocalityFrac,
			float64(res.GatewayRuns), float64(res.GatewayRunsSaved),
			res.FinalCDS, res.RebuildCDS,
		}
		for i := range series {
			series[i].Points = append(series[i].Points, Point{N: k, Mean: vals[i], Runs: res.Events})
		}
	}
	fig.Series = series
	return fig, nil
}

// rebuildCDSSize clusters the final topology from scratch and returns
// the CDS size over alive nodes — what a full rebuild would deploy,
// against which the maintained structure's size drift is measured.
// Departed nodes are isolated vertices; each trivially heads itself, so
// they are excluded from the count.
func rebuildCDSSize(ctx context.Context, st *churnState, k int) (int, error) {
	g := graph.New(len(st.pos))
	for u := range st.pos {
		if !st.alive[u] {
			continue
		}
		for v := u + 1; v < len(st.pos); v++ {
			if st.alive[v] && st.pos[u].Dist(st.pos[v]) <= st.net.Range {
				g.AddEdge(u, v)
			}
		}
	}
	out, err := core.BuildCtx(ctx, g, core.Options{K: k, Algorithm: gateway.ACLMST})
	if err != nil {
		return 0, err
	}
	size := 0
	for _, v := range out.Gateway.CDS {
		if st.alive[v] {
			size++
		}
	}
	return size, nil
}
