package khop

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/udg"
)

// Graph is an undirected network graph with vertices 0..N-1. The zero
// value is unusable; create one with NewGraph.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns a graph with n vertices and no edges.
func NewGraph(n int) *Graph { return &Graph{g: graph.New(n)} }

// N returns the number of vertices.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.g.M() }

// AddEdge inserts the undirected edge (u, v); duplicates are ignored.
func (g *Graph) AddEdge(u, v int) { g.g.AddEdge(u, v) }

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.g.HasEdge(u, v) }

// Neighbors returns v's sorted neighbor list (shared; do not modify).
func (g *Graph) Neighbors(v int) []int { return g.g.Neighbors(v) }

// Edges returns every undirected edge once as (u, v) with u < v, in
// ascending lexicographic order.
func (g *Graph) Edges() [][2]int { return g.g.Edges() }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return g.g.Degree(v) }

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool { return g.g.Connected() }

// Algorithm selects a complete clustering-connection pipeline, matching
// the curves of the paper's figures.
type Algorithm = gateway.Algorithm

// Pipeline algorithms. ACLMST (A-NCR neighbor selection + LMST-based
// gateway selection) is the paper's headline; GMST is the centralized
// lower-bound baseline.
const (
	NCMesh = gateway.NCMesh
	ACMesh = gateway.ACMesh
	NCLMST = gateway.NCLMST
	ACLMST = gateway.ACLMST
	GMST   = gateway.GMST
)

// AlgorithmByName parses an algorithm's display name ("NC-Mesh",
// "AC-Mesh", "NC-LMST", "AC-LMST", "G-MST", as printed by
// Algorithm.String) back into the Algorithm value. The match is
// case-insensitive. It is the inverse used by the CLI flags and the
// deployment server's JSON API.
func AlgorithmByName(name string) (Algorithm, error) {
	for _, a := range []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST} {
		if strings.EqualFold(a.String(), name) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("khop: unknown algorithm %q (want NC-Mesh, AC-Mesh, NC-LMST, AC-LMST, or G-MST)", name)
}

// Affiliation is the member-affiliation rule used when a node hears more
// than one clusterhead declaration.
type Affiliation = cluster.Affiliation

// Affiliation rules (paper §3 rules (1)–(3)).
const (
	AffiliationID       = cluster.AffiliationID
	AffiliationDistance = cluster.AffiliationDistance
	AffiliationSize     = cluster.AffiliationSize
)

// Priority is a clusterhead election priority; see LowestID,
// HighestDegree and HighestEnergy.
type Priority = cluster.Priority

// LowestIDPriority is the classical lowest-ID election priority (the
// default when no WithPriority option is given).
func LowestIDPriority() Priority { return cluster.LowestID{} }

// HighestDegreePriority prefers nodes with more neighbors.
func HighestDegreePriority(g *Graph) Priority { return cluster.NewHighestDegree(g.g) }

// HighestEnergyPriority prefers nodes with more residual energy (one
// entry per node), the power-aware rotation policy of §3.3.
func HighestEnergyPriority(energy []float64) Priority { return cluster.NewHighestEnergy(energy) }

// Result is a built connected k-hop clustering.
type Result struct {
	// K echoes the cluster radius.
	K int
	// Algorithm echoes the pipeline used.
	Algorithm Algorithm
	// Heads are the clusterheads, ascending. They form a k-hop
	// dominating and k-hop independent set.
	Heads []int
	// HeadOf[v] is v's clusterhead (HeadOf[h] == h for heads).
	HeadOf []int
	// DistToHead[v] is the hop distance from v to HeadOf[v].
	DistToHead []int
	// NeighborHeads maps every head to the neighbor clusterheads
	// selected by the pipeline's rule (NC or A-NCR).
	NeighborHeads map[int][]int
	// Gateways are the selected relay nodes, ascending.
	Gateways []int
	// CDS is Heads ∪ Gateways, ascending: a k-hop connected dominating
	// set of the input graph.
	CDS []int
	// GatewayPaths maps each connected head pair {u, v} (u < v) to the
	// gateway path realizing the virtual link.
	GatewayPaths map[[2]int][]int
	// IndependentHeads records whether the clustering algorithm
	// guarantees k-hop independence of the heads. True for the paper's
	// iterative lowest-ID clustering (Centralized and Distributed
	// modes); false for Max-Min d-cluster formation (MaxMin mode), whose
	// heads may be closer than k+1 hops.
	IndependentHeads bool
	// Cost is the message complexity of a Distributed build; nil for the
	// centralized modes.
	Cost *Cost
}

// Cost is the message complexity of a distributed build.
type Cost struct {
	Rounds        int
	Transmissions int
	Deliveries    int
	Phases        []PhaseCost
}

// PhaseCost is the cost of a single protocol phase.
type PhaseCost struct {
	Name          string
	Rounds        int
	Transmissions int
	Deliveries    int
}

// Verify checks the paper's guarantees on a built result: heads form a
// k-hop dominating and independent set, clusters are well-formed, and
// the CDS connects all heads and dominates the graph within k hops. It
// returns nil when all hold; intended for tests and debugging.
//
// Verify is VerifyResult with the arguments flipped; see VerifyResult
// for the full invariant list (including the edge-by-edge gateway-path
// checks and churn awareness).
func (r *Result) Verify(g *Graph) error { return VerifyResult(g, r) }

// assemble is the public view of a pipeline output: K comes from the
// clustering and the algorithm from the gateway result.
func assemble(out *core.Output) *Result {
	c, res := out.Clustering, out.Gateway
	return &Result{
		K:                c.K,
		Algorithm:        res.Algorithm,
		Heads:            c.Heads,
		HeadOf:           c.Head,
		DistToHead:       c.DistToHead,
		NeighborHeads:    out.Selection.Neighbors,
		Gateways:         res.Gateways,
		CDS:              res.CDS,
		GatewayPaths:     res.Paths,
		IndependentHeads: true,
	}
}

// NetworkConfig configures RandomNetwork.
type NetworkConfig struct {
	N         int     // number of nodes
	AvgDegree float64 // target average degree (default 6)
	Width     float64 // field width (default 100)
	Height    float64 // field height (default 100)
	Seed      int64   // randomness seed
	// AllowDisconnected skips the connectivity filter.
	AllowDisconnected bool
}

// Network is a randomly deployed unit-disk network.
type Network struct {
	net *udg.Network
}

// ErrDisconnected mirrors udg.ErrDisconnected for the public API.
var ErrDisconnected = errors.New("khop: could not generate a connected network")

// RandomNetwork deploys N nodes uniformly at random on the field and
// connects nodes within the transmission range calibrated to hit the
// target average degree — the paper's evaluation setup.
func RandomNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.AvgDegree == 0 {
		cfg.AvgDegree = 6
	}
	field := udg.DefaultField()
	if cfg.Width > 0 && cfg.Height > 0 {
		field = udg.FieldRect(cfg.Width, cfg.Height)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := udg.Generate(udg.Config{
		N:                cfg.N,
		AvgDegree:        cfg.AvgDegree,
		Field:            field,
		RequireConnected: !cfg.AllowDisconnected,
	}, rng)
	if err != nil {
		if errors.Is(err, udg.ErrDisconnected) {
			// Keep the sentinel matchable with errors.Is while carrying
			// the attempted configuration in the message.
			return nil, fmt.Errorf("khop: N=%d, avg degree %g, seed %d: %w",
				cfg.N, cfg.AvgDegree, cfg.Seed, ErrDisconnected)
		}
		return nil, err
	}
	return &Network{net: net}, nil
}

// Graph returns the network's unit-disk graph.
func (n *Network) Graph() *Graph { return &Graph{g: n.net.G} }

// N returns the number of nodes.
func (n *Network) N() int { return n.net.N() }

// Position returns node v's coordinates.
func (n *Network) Position(v int) (x, y float64) {
	return n.net.Pos[v].X, n.net.Pos[v].Y
}

// TransmissionRange returns the shared radio range.
func (n *Network) TransmissionRange() float64 { return n.net.Range }
