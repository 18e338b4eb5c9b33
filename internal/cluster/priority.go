// Package cluster implements the paper's k-hop clustering: iterative
// lowest-ID (or generic-priority) clusterhead election over k-hop
// neighborhoods, followed by member affiliation. The resulting
// clusterheads form a k-hop dominating set and a k-hop independent set of
// the network graph, and clusters are non-overlapping.
package cluster

import (
	"fmt"

	"repro/internal/graph"
)

// Rank is a node's election priority. Ranks are totally ordered: lower
// Value wins, ties broken by lower ID. Encoding priority as a (value, id)
// pair keeps it trivially transmittable in protocol messages, which the
// distributed implementation in internal/proto relies on.
type Rank struct {
	Value float64
	ID    int
}

// Better reports whether r beats s in the election.
func (r Rank) Better(s Rank) bool {
	if r.Value != s.Value {
		return r.Value < s.Value
	}
	return r.ID < s.ID
}

// Priority assigns an election rank to every node. Implementations must
// be deterministic for a given network instance and rank every two
// nodes strictly apart (the built-in priorities break value ties by
// ID); the centralized election reads each node's rank once per run
// and reports two nodes that rank equal as an error.
type Priority interface {
	Rank(v int) Rank
}

// LowestID is the classical Lin–Gerla priority: the smallest node ID in
// the (remaining) k-hop neighborhood becomes clusterhead.
type LowestID struct{}

// Rank implements Priority.
func (LowestID) Rank(v int) Rank { return Rank{Value: 0, ID: v} }

// HighestDegree prefers nodes with more neighbors (Gerla–Tsai style),
// breaking ties by lowest ID. Degrees are captured at construction so the
// priority stays stable across election rounds.
type HighestDegree struct {
	deg []int
}

// NewHighestDegree snapshots node degrees from g.
func NewHighestDegree(g *graph.Graph) HighestDegree {
	deg := make([]int, g.N())
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	return HighestDegree{deg: deg}
}

// Rank implements Priority.
func (p HighestDegree) Rank(v int) Rank {
	return Rank{Value: -float64(p.deg[v]), ID: v}
}

// HighestEnergy prefers nodes with more residual energy, the power-aware
// rotation policy discussed in the paper's §3.3. Ties break by lowest ID.
type HighestEnergy struct {
	energy []float64
}

// NewHighestEnergy wraps a residual-energy vector (one entry per node).
func NewHighestEnergy(energy []float64) HighestEnergy {
	return HighestEnergy{energy: energy}
}

// Rank implements Priority.
func (p HighestEnergy) Rank(v int) Rank {
	if v < 0 || v >= len(p.energy) {
		panic(fmt.Sprintf("cluster: node %d outside energy vector of length %d", v, len(p.energy)))
	}
	return Rank{Value: -p.energy[v], ID: v}
}
