package proto

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/sim"
)

// Options configures a distributed pipeline run.
type Options struct {
	K        int
	Priority cluster.Priority // nil means lowest ID
	// Affiliation must be AffiliationID or AffiliationDistance; the
	// size-based rule needs global size knowledge and is centralized-only.
	Affiliation cluster.Affiliation
	Rule        ncr.Rule // neighbor clusterhead selection rule
	UseLMST     bool     // LMSTGA if true, mesh otherwise
	// Loss injects per-delivery message loss with the given probability
	// (0 = the paper's ideal MAC). With loss the protocol still
	// terminates, but its guarantees degrade; the robustness experiment
	// measures how often each invariant survives. LossSeed drives the
	// drop decisions.
	Loss     float64
	LossSeed int64
}

// AlgorithmOptions returns the Options matching one of the paper's four
// localized algorithms. G-MST is centralized by definition and has no
// distributed counterpart.
func AlgorithmOptions(k int, algo gateway.Algorithm) (Options, error) {
	switch algo {
	case gateway.NCMesh, gateway.ACMesh, gateway.NCLMST, gateway.ACLMST:
		return Options{K: k, Rule: algo.NeighborRule(), UseLMST: algo == gateway.NCLMST || algo == gateway.ACLMST}, nil
	}
	return Options{}, fmt.Errorf("proto: algorithm %v has no distributed implementation", algo)
}

// PhaseStats records the protocol cost of one pipeline phase.
type PhaseStats struct {
	Name  string
	Stats sim.Stats
}

// Result is the outcome of the distributed pipeline.
type Result struct {
	Clustering *cluster.Clustering
	Selection  *ncr.Selection
	// Gateways are the nodes that marked themselves, sorted.
	Gateways []int
	// CDS is heads ∪ gateways, sorted.
	CDS []int
	// Phases holds per-phase message statistics in execution order.
	Phases []PhaseStats
	// Total aggregates all phases.
	Total sim.Stats
}

// Run executes the full distributed pipeline on g: iterative k-hop
// election, affiliation, adjacency detection, head advertisement,
// optional LMST virtual-link exchange, and gateway marking. The returned
// structures mirror the centralized implementations bit for bit (see the
// equivalence tests).
func Run(g *graph.Graph, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, opt)
}

// RunCtx is Run with cancellation: a cancelled ctx aborts the protocol
// at the next flood-round barrier (see sim.Runtime.Ctx) and RunCtx
// returns the context's error.
func RunCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("proto: k must be ≥ 1, got %d", opt.K)
	}
	if opt.Affiliation != cluster.AffiliationID && opt.Affiliation != cluster.AffiliationDistance {
		return nil, fmt.Errorf("proto: affiliation %v is not supported by the distributed protocol", opt.Affiliation)
	}
	prio := opt.Priority
	if prio == nil {
		prio = cluster.LowestID{}
	}

	n := g.N()
	states := make([]*nodeState, n)
	for v := 0; v < n; v++ {
		states[v] = newNodeState(v, opt.K, prio.Rank(v), opt.Affiliation)
	}

	res := &Result{}
	var lossRNG *rand.Rand
	if opt.Loss > 0 {
		lossRNG = rand.New(rand.NewSource(opt.LossSeed))
	}
	runPhase := func(name string, progs []sim.Program) error {
		rt := sim.New(g, progs)
		rt.Ctx = ctx
		rt.LossRate = opt.Loss
		rt.LossRNG = lossRNG
		stats := rt.Run()
		res.Phases = append(res.Phases, PhaseStats{Name: name, Stats: stats})
		res.Total.Add(stats)
		return ctx.Err()
	}

	// Phase 1: iterative election. The driver only checks the global
	// "all decided" predicate between iterations (termination detection);
	// every decision inside an iteration is local.
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		undecided := 0
		for _, s := range states {
			if !s.decided {
				undecided++
			}
		}
		if undecided == 0 {
			break
		}
		iterations++
		if iterations > n+1 {
			return nil, fmt.Errorf("proto: election did not converge after %d iterations", iterations)
		}
		if err := runPhase(fmt.Sprintf("election-rank[%d]", iterations), makePrograms(states, func(s *nodeState) sim.Program {
			return &rankFloodPhase{s: s}
		})); err != nil {
			return nil, err
		}
		if err := runPhase(fmt.Sprintf("election-declare[%d]", iterations), makePrograms(states, func(s *nodeState) sim.Program {
			return &declareFloodPhase{s: s}
		})); err != nil {
			return nil, err
		}
		for _, s := range states {
			s.join()
		}
	}

	// Phase 2: adjacency detection (needed by A-NCR; cheap, and the
	// hello exchange is how real deployments learn cluster borders, so
	// we always run it and charge its cost).
	if err := runPhase("hello-report", makePrograms(states, func(s *nodeState) sim.Program {
		return &helloReportPhase{s: s}
	})); err != nil {
		return nil, err
	}

	// Phase 3: clusterhead advertisement within 2k+1 hops.
	if err := runPhase("head-ad", makePrograms(states, func(s *nodeState) sim.Program {
		return &headAdPhase{s: s}
	})); err != nil {
		return nil, err
	}

	// Neighbor selection is a local computation at each head.
	selections := make(map[int]map[int]int)
	for _, s := range states {
		if s.isHead() {
			selections[s.id] = s.selectedNeighbors(opt.Rule)
		}
	}

	// Phase 4: LMSTGA virtual-link exchange.
	if opt.UseLMST {
		if err := runPhase("nbr-set", makePrograms(states, func(s *nodeState) sim.Program {
			return &nbrSetPhase{s: s, sel: selections[s.id]}
		})); err != nil {
			return nil, err
		}
	}

	// Phase 5: gateway marking.
	kept := make(map[int][]int)
	for h, sel := range selections {
		kept[h] = states[h].keptLinks(sel, opt.UseLMST)
	}
	if err := runPhase("mark", makePrograms(states, func(s *nodeState) sim.Program {
		return &markPhase{s: s, kept: kept[s.id]}
	})); err != nil {
		return nil, err
	}

	res.Clustering = assembleClustering(states, opt.K, iterations)
	res.Selection = assembleSelection(selections, opt.Rule, opt.K)
	for _, s := range states {
		if s.gateway {
			res.Gateways = append(res.Gateways, s.id)
		}
	}
	sort.Ints(res.Gateways)
	res.CDS = append(append([]int(nil), res.Clustering.Heads...), res.Gateways...)
	sort.Ints(res.CDS)
	return res, nil
}

func makePrograms(states []*nodeState, mk func(*nodeState) sim.Program) []sim.Program {
	progs := make([]sim.Program, len(states))
	for i, s := range states {
		progs[i] = mk(s)
	}
	return progs
}

func assembleClustering(states []*nodeState, k, rounds int) *cluster.Clustering {
	c := &cluster.Clustering{
		K:          k,
		Head:       make([]int, len(states)),
		DistToHead: make([]int, len(states)),
		Rounds:     rounds,
	}
	for _, s := range states {
		c.Head[s.id] = s.head
		c.DistToHead[s.id] = s.distToHead
		if s.isHead() {
			c.Heads = append(c.Heads, s.id)
		}
	}
	sort.Ints(c.Heads)
	return c
}

func assembleSelection(selections map[int]map[int]int, rule ncr.Rule, k int) *ncr.Selection {
	sel := &ncr.Selection{Rule: rule, K: k, Neighbors: make(map[int][]int, len(selections))}
	for h, nbrs := range selections {
		ids := make([]int, 0, len(nbrs))
		for v := range nbrs {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		sel.Neighbors[h] = ids
	}
	return sel
}
