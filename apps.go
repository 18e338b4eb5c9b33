package khop

import (
	"errors"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/routing"
)

// ErrNoGatewayPaths is returned by NewRouter and NewBroadcastPlan when
// the Result does not carry the gateway paths they need — a
// hand-assembled Result, or one from a legacy build that predates
// path-carrying Results. Engine.Build results are always self-contained.
var ErrNoGatewayPaths = errors.New("khop: Result carries no GatewayPaths; build it with Engine.Build")

// BroadcastStats summarizes one simulated broadcast.
type BroadcastStats = broadcast.Stats

// BroadcastPlan is a precomputed forwarding set for CDS-confined
// broadcast: the CDS relays between clusters and each cluster's interior
// dissemination tree relays to the fringe, so coverage of a connected
// network is guaranteed while far fewer nodes transmit than in blind
// flooding.
type BroadcastPlan struct {
	g    *graph.Graph
	plan *broadcast.Plan
}

// NewBroadcastPlan derives the forwarding set from a built Result. It
// returns ErrNoGatewayPaths when res lacks the gateway paths the plan is
// built from (see Result.GatewayPaths).
func NewBroadcastPlan(g *Graph, res *Result) (*BroadcastPlan, error) {
	out, err := res.internals()
	if err != nil {
		return nil, err
	}
	return &BroadcastPlan{g: g.g, plan: broadcast.NewPlan(g.g, out.Clustering, out.Gateway)}, nil
}

// ForwarderCount returns how many nodes retransmit under the plan.
func (p *BroadcastPlan) ForwarderCount() int { return p.plan.ForwarderCount() }

// Forwards reports whether node v retransmits under the plan.
func (p *BroadcastPlan) Forwards(v int) bool { return p.plan.Forwards(v) }

// Broadcast simulates a broadcast from src using the plan.
func (p *BroadcastPlan) Broadcast(src int) BroadcastStats { return p.plan.Run(p.g, src) }

// BlindFlood simulates the baseline where every node retransmits once.
func BlindFlood(g *Graph, src int) BroadcastStats { return broadcast.Blind(g.g, src) }

// Router routes packets hierarchically over a built Result: inside the
// source cluster to the clusterhead, across the clusterhead backbone via
// the gateway paths, then down into the destination cluster. Members
// keep one routing entry (toward their head); only heads keep backbone
// state.
type Router struct {
	r *routing.Router
}

// NewRouter builds a hierarchical router from a built Result. It returns
// ErrNoGatewayPaths when res lacks the gateway paths the backbone is
// built from (see Result.GatewayPaths).
func NewRouter(g *Graph, res *Result) (*Router, error) {
	out, err := res.internals()
	if err != nil {
		return nil, err
	}
	return &Router{r: routing.New(g.g, out.Clustering, out.Gateway)}, nil
}

// Route returns the hierarchical route from src to dst, endpoints
// included.
func (r *Router) Route(src, dst int) ([]int, error) { return r.r.Route(src, dst) }

// Stretch returns hierarchical route length divided by the flat shortest
// path length (1.0 = optimal).
func (r *Router) Stretch(src, dst int) (float64, error) { return r.r.Stretch(src, dst) }

// TableSizes returns the total routing entries needed network-wide by
// flat link-state routing vs this hierarchical scheme.
func (r *Router) TableSizes() (flat, hierarchical int) { return r.r.TableSizes() }

// internals reconstructs the pipeline output (clustering, neighbor
// selection and gateway result) a Result was assembled from. The paths
// and links are rebuilt from GatewayPaths; a multi-cluster Result
// without them cannot be reconstructed faithfully (the backbone would
// silently come out empty), so that case is an explicit error instead
// of a broken structure. The
// one legitimately path-less multi-head shape — a NeighborHeads map
// that selects no pair at all, i.e. every head alone in its own
// component — reconstructs faithfully to an empty backbone and is
// allowed through (snapshots of disconnected deployments restore this
// way).
func (r *Result) internals() (*core.Output, error) {
	if len(r.Heads) > 1 && len(r.GatewayPaths) == 0 && !emptyBackbone(r) {
		return nil, ErrNoGatewayPaths
	}
	c := &cluster.Clustering{
		K:          r.K,
		Head:       r.HeadOf,
		Heads:      r.Heads,
		DistToHead: r.DistToHead,
	}
	gres := &gateway.Result{
		Algorithm: r.Algorithm,
		Gateways:  r.Gateways,
		CDS:       r.CDS,
		Paths:     r.GatewayPaths,
	}
	for link, path := range r.GatewayPaths {
		gres.Links = append(gres.Links, graph.WEdge{U: link[0], V: link[1], Weight: len(path) - 1})
	}
	graph.SortWEdges(gres.Links)
	sel := &ncr.Selection{Rule: r.Algorithm.NeighborRule(), K: r.K, Neighbors: r.NeighborHeads}
	return &core.Output{Clustering: c, Selection: sel, Gateway: gres}, nil
}

// emptyBackbone reports whether r's neighbor selection is present and
// selects no head pair — the only shape for which "no gateway paths"
// is the truth rather than missing data.
func emptyBackbone(r *Result) bool {
	if len(r.NeighborHeads) == 0 {
		return false
	}
	for _, nbs := range r.NeighborHeads {
		if len(nbs) > 0 {
			return false
		}
	}
	return true
}
