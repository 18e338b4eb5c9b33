// Package energy models the power-aware design of the paper's §3.3:
// clusterheads (and gateways) spend more energy than plain members, so
// rotating the clusterhead role — by using residual energy instead of
// lowest ID as the election priority — prolongs the network's lifetime.
//
// The model is the standard LEACH-style epoch simulation: per epoch each
// node pays a role-dependent energy cost; the lifetime metric is the
// first epoch in which any node's energy reaches zero (time-to-first-
// death), plus the residual-energy spread.
package energy

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
)

// Model is the per-epoch energy cost of each role, and the initial
// charge of every node.
type Model struct {
	HeadCost    float64
	GatewayCost float64
	MemberCost  float64
	Initial     float64
}

// DefaultModel mirrors the common 3:2:1 head/gateway/member cost ratio.
func DefaultModel() Model {
	return Model{HeadCost: 3, GatewayCost: 2, MemberCost: 1, Initial: 100}
}

// Policy selects how clusterheads are chosen over time.
type Policy int

const (
	// PolicyStatic clusters once with lowest-ID priority and never
	// changes roles — the baseline §3.3 argues against.
	PolicyStatic Policy = iota
	// PolicyRotate re-clusters every epoch with highest-residual-energy
	// priority, rotating the expensive roles.
	PolicyRotate
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyRotate:
		return "rotate"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Result summarizes a lifetime simulation.
type Result struct {
	Policy Policy
	// FirstDeath is the epoch at which the first node depleted its
	// energy, or -1 if none did within the horizon.
	FirstDeath int
	// Epochs is how many epochs were simulated.
	Epochs int
	// MinResidual and MeanResidual describe the final energy spread
	// (clamped at zero).
	MinResidual  float64
	MeanResidual float64
	// HeadServices counts distinct nodes that served as clusterhead at
	// least once — the rotation breadth.
	HeadServices int
}

// Simulate runs the epoch model on g with the given clustering radius
// and gateway algorithm until the first node dies or maxEpochs elapse.
func Simulate(g *graph.Graph, k int, algo gateway.Algorithm, m Model, p Policy, maxEpochs int) (*Result, error) {
	if maxEpochs < 1 {
		return nil, fmt.Errorf("energy: maxEpochs must be ≥ 1, got %d", maxEpochs)
	}
	if m.Initial <= 0 {
		return nil, fmt.Errorf("energy: non-positive initial energy %v", m.Initial)
	}
	n := g.N()
	residual := make([]float64, n)
	for i := range residual {
		residual[i] = m.Initial
	}
	served := make([]bool, n)
	res := &Result{Policy: p, FirstDeath: -1}

	var c *cluster.Clustering
	var gw *gateway.Result
	build := func() error {
		var prio cluster.Priority
		if p == PolicyRotate {
			prio = cluster.NewHighestEnergy(residual)
		}
		out, err := core.BuildCtx(context.Background(), g, core.Options{K: k, Algorithm: algo, Priority: prio})
		if err != nil {
			return err
		}
		c, gw = out.Clustering, out.Gateway
		return nil
	}

	for epoch := 0; epoch < maxEpochs; epoch++ {
		res.Epochs++
		if c == nil || p == PolicyRotate {
			if err := build(); err != nil {
				return nil, fmt.Errorf("energy: epoch %d: %w", epoch, err)
			}
		}
		for _, h := range c.Heads {
			served[h] = true
		}
		cost := make([]float64, n)
		for i := range cost {
			cost[i] = m.MemberCost
		}
		for _, h := range c.Heads {
			cost[h] = m.HeadCost
		}
		for _, v := range gw.Gateways {
			cost[v] = m.GatewayCost
		}
		dead := false
		for i := range residual {
			if residual[i] <= 0 {
				continue
			}
			residual[i] -= cost[i]
			if residual[i] <= 0 {
				dead = true
			}
		}
		if dead {
			res.FirstDeath = epoch
			break
		}
	}

	min, sum := residual[0], 0.0
	for _, e := range residual {
		if e < 0 {
			e = 0
		}
		if e < min {
			min = e
		}
		sum += e
	}
	if min < 0 {
		min = 0
	}
	res.MinResidual = min
	res.MeanResidual = sum / float64(n)
	for _, s := range served {
		if s {
			res.HeadServices++
		}
	}
	return res, nil
}

// Lifetime is a convenience wrapper returning only the first-death epoch
// (maxEpochs if no node died).
func Lifetime(g *graph.Graph, k int, algo gateway.Algorithm, m Model, p Policy, maxEpochs int) (int, error) {
	r, err := Simulate(g, k, algo, m, p, maxEpochs)
	if err != nil {
		return 0, err
	}
	if r.FirstDeath < 0 {
		return maxEpochs, nil
	}
	return r.FirstDeath, nil
}
