// Package broadcast implements the paper's motivating application:
// network-wide message dissemination. Blind flooding (every node
// retransmits once) is reliable but expensive; confining retransmission
// to the k-hop connected dominating set built by the clustering pipeline
// — plus per-cluster dissemination trees that carry the message from
// each clusterhead to its cluster's fringe — covers the whole network
// with far fewer transmissions.
package broadcast

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
)

// Stats summarizes one simulated broadcast.
type Stats struct {
	Transmissions int  // nodes that retransmitted
	Reached       int  // nodes that received the message
	Covered       bool // whether every node received it
	Rounds        int  // propagation rounds until quiescence
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("tx=%d reached=%d covered=%v rounds=%d",
		s.Transmissions, s.Reached, s.Covered, s.Rounds)
}

// Flood simulates a broadcast from src where forwards(v) decides whether
// node v retransmits after its first reception. The source always
// transmits once.
func Flood(g *graph.Graph, src int, forwards func(int) bool) Stats {
	received := make([]bool, g.N())
	received[src] = true
	frontier := []int{src}
	var st Stats
	for len(frontier) > 0 {
		st.Rounds++
		var next []int
		for _, u := range frontier {
			if u != src && !forwards(u) {
				continue
			}
			st.Transmissions++
			for _, v := range g.Neighbors(u) {
				if !received[v] {
					received[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	for _, ok := range received {
		if ok {
			st.Reached++
		}
	}
	st.Covered = st.Reached == g.N()
	return st
}

// Blind floods with every node retransmitting — the baseline the paper's
// introduction argues against.
func Blind(g *graph.Graph, src int) Stats {
	return Flood(g, src, func(int) bool { return true })
}

// Plan is a precomputed forwarding set for CDS-based broadcast.
type Plan struct {
	forward []bool
	size    int
}

// ForwarderCount returns the number of designated forwarders.
func (p *Plan) ForwarderCount() int { return p.size }

// Forwards reports whether v is a designated forwarder.
func (p *Plan) Forwards(v int) bool { return p.forward[v] }

// NewPlan builds the forwarding set for a clustering and its gateway
// result: the CDS (heads + gateways) relays between clusters, and inside
// each cluster the interior nodes of the head's shortest-path
// dissemination tree relay toward the fringe. Coverage is guaranteed by
// construction: every member is reached by walking its tree path from
// the head, and heads reach each other through the connected CDS.
//
// Each member's tree path uses, at every step, its smallest-ID neighbor
// one hop closer to the head — the same parent the declare-flood tree
// uses, so a deployment pays no extra state for this plan. The cost
// follows the clusters, not heads × N: one O(V+E) flatten, then per head
// one early-exit BFS (graph.FlatGraph.ShortestPathsFrom) that stops when
// the cluster's farthest member is found. The walk is deliberately not
// bounded by k: churn repair can leave a member on a detour longer than
// k hops, and stopping at the last member is exact at any distance.
func NewPlan(g *graph.Graph, c *cluster.Clustering, res *gateway.Result) *Plan {
	n := g.N()
	p := &Plan{forward: make([]bool, n)}
	for _, v := range res.CDS {
		p.forward[v] = true
	}
	// Bucket every vertex under its head in one counting pass:
	// members[off[h]:off[h+1]] is h's cluster, in ascending ID order.
	off := make([]int, n+1)
	for _, h := range c.Head {
		off[h+1]++
	}
	for h := 0; h < n; h++ {
		off[h+1] += off[h]
	}
	members := make([]int, n)
	next := append([]int(nil), off[:n]...)
	for v, h := range c.Head {
		members[next[h]] = v
		next[h]++
	}
	fg := graph.Flatten(g)
	sc := graph.NewScratch()
	// Only listed heads get a tree: a departed slot is self-headed but
	// not a listed head (the maintenance convention), is off the air,
	// and needs no dissemination path.
	for _, h := range c.Heads {
		for _, path := range fg.ShortestPathsFrom(sc, h, members[off[h]:off[h+1]]) {
			// path runs head → member; nil when the member is
			// unreachable, which only a disconnected input allows.
			for i := 1; i+1 < len(path); i++ {
				p.forward[path[i]] = true
			}
		}
	}
	for _, f := range p.forward {
		if f {
			p.size++
		}
	}
	return p
}

// Run broadcasts from src using the plan's forwarding set.
func (p *Plan) Run(g *graph.Graph, src int) Stats {
	return Flood(g, src, p.Forwards)
}

// Compare runs blind flooding and CDS-based broadcast from the same
// source on the same network and returns both stats plus the fraction of
// transmissions saved.
func Compare(g *graph.Graph, c *cluster.Clustering, res *gateway.Result, src int) (blind, cds Stats, saved float64) {
	blind = Blind(g, src)
	cds = NewPlan(g, c, res).Run(g, src)
	if blind.Transmissions > 0 {
		saved = 1 - float64(cds.Transmissions)/float64(blind.Transmissions)
	}
	return blind, cds, saved
}
