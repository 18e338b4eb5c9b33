package proto

import (
	"repro/internal/cluster"
	"repro/internal/ncr"
	"sort"

	"repro/internal/graph"
	"repro/internal/sim"
)

// --- Phase 1a: rank flooding -------------------------------------------
//
// Every undecided node floods its election rank within k hops. Decided
// nodes still relay (the k-hop neighborhood is measured in G), but do not
// originate.

type rankFloodPhase struct {
	s *nodeState
}

func (p *rankFloodPhase) Init(env *sim.Env) {
	p.s.ranksHeard = make(map[int]cluster.Rank)
	if !p.s.decided {
		env.Broadcast(rankMsg{Origin: p.s.id, Rank: p.s.rank, TTL: p.s.k})
	}
}

func (p *rankFloodPhase) Step(env *sim.Env, in []sim.Message) {
	for _, m := range in {
		rm, ok := m.Payload.(rankMsg)
		if !ok || rm.Origin == p.s.id {
			continue
		}
		if _, seen := p.s.ranksHeard[rm.Origin]; seen {
			continue
		}
		p.s.ranksHeard[rm.Origin] = rm.Rank
		if rm.TTL > 1 {
			env.Broadcast(rankMsg{Origin: rm.Origin, Rank: rm.Rank, TTL: rm.TTL - 1})
		}
	}
}

// wonElection reports whether the node should declare itself clusterhead:
// it is undecided and its rank beats every undecided rank heard within k
// hops this iteration.
func (s *nodeState) wonElection() bool {
	if s.decided {
		return false
	}
	for _, r := range s.ranksHeard {
		if r.Better(s.rank) {
			return false
		}
	}
	return true
}

// --- Phase 1b: clusterhead declaration flooding ------------------------
//
// Election winners declare themselves and flood the declaration within k
// hops. Every receiver records the hop distance (= delivery round) and
// its flood-tree parent (smallest sender ID in the first delivery round),
// which later phases use to route reports toward the head.

type declareFloodPhase struct {
	s *nodeState
}

func (p *declareFloodPhase) Init(env *sim.Env) {
	if p.s.wonElection() {
		p.s.decided = true
		p.s.head = p.s.id
		p.s.distToHead = 0
		env.Broadcast(declareMsg{Head: p.s.id, TTL: p.s.k})
	}
}

func (p *declareFloodPhase) Step(env *sim.Env, in []sim.Message) {
	// Inboxes are sorted by sender, so the first copy of a head this
	// round carries the smallest sender ID.
	for _, m := range in {
		dm, ok := m.Payload.(declareMsg)
		if !ok || dm.Head == p.s.id {
			continue
		}
		if _, seen := p.s.offers[dm.Head]; seen {
			continue
		}
		p.s.offers[dm.Head] = headInfo{dist: env.Round(), parent: m.From}
		if dm.TTL > 1 {
			env.Broadcast(declareMsg{Head: dm.Head, TTL: dm.TTL - 1})
		}
	}
}

// join applies the affiliation rule to the declarations heard so far. It
// is a purely local decision; the driver invokes it between iterations.
func (s *nodeState) join() {
	if s.decided || len(s.offers) == 0 {
		return
	}
	best := -1
	var bestInfo headInfo
	for h, info := range s.offers {
		if best == -1 || s.betterOffer(h, info, best, bestInfo) {
			best, bestInfo = h, info
		}
	}
	s.decided = true
	s.head = best
	s.distToHead = bestInfo.dist
}

func (s *nodeState) betterOffer(h int, hi headInfo, cur int, ci headInfo) bool {
	if s.affil == cluster.AffiliationDistance {
		if hi.dist != ci.dist {
			return hi.dist < ci.dist
		}
	}
	return h < cur
}

// --- Phase 2: hello + border reports (A-NCR adjacency detection) -------
//
// Every node announces its cluster to its radio neighbors. A node with a
// foreign-cluster neighbor is a border node; it reports the foreign head
// to its own head along the declare-flood parents. Heads accumulate the
// adjacent-head set (Definition 2).

type helloReportPhase struct {
	s        *nodeState
	reported map[int]bool    // foreign heads this node already reported
	relayed  map[[2]int]bool // (toHead, adjacentHead) pairs already forwarded
}

func (p *helloReportPhase) Init(env *sim.Env) {
	p.reported = make(map[int]bool)
	p.relayed = make(map[[2]int]bool)
	env.Broadcast(helloMsg{Head: p.s.head})
}

func (p *helloReportPhase) Step(env *sim.Env, in []sim.Message) {
	for _, m := range in {
		switch msg := m.Payload.(type) {
		case helloMsg:
			if msg.Head == p.s.head {
				continue
			}
			if p.s.isHead() {
				p.s.adjacentHeads[msg.Head] = true
				continue
			}
			if p.reported[msg.Head] {
				continue
			}
			p.reported[msg.Head] = true
			p.forwardReport(env, reportMsg{ToHead: p.s.head, AdjacentHead: msg.Head})
		case reportMsg:
			if msg.ToHead == p.s.id {
				p.s.adjacentHeads[msg.AdjacentHead] = true
				continue
			}
			key := [2]int{msg.ToHead, msg.AdjacentHead}
			if p.relayed[key] {
				continue // another border member already reported this pair
			}
			p.relayed[key] = true
			p.forwardReport(env, msg)
		}
	}
}

func (p *helloReportPhase) forwardReport(env *sim.Env, msg reportMsg) {
	info, ok := p.s.offers[msg.ToHead]
	if !ok {
		// Cannot happen on a connected instance: any node relaying a
		// report toward head h lies within k hops of h and heard the
		// declare flood. Drop rather than crash in degenerate graphs.
		return
	}
	env.Send(info.parent, msg)
}

// --- Phase 3: clusterhead advertisement (2k+1 hops) --------------------
//
// Every head floods its existence within 2k+1 hops. Heads discover the
// NC neighbor set and pairwise distances; every node learns its
// flood-tree parent toward each nearby head, the routing state used by
// the marking phase.

type headAdPhase struct {
	s *nodeState
}

func (p *headAdPhase) Init(env *sim.Env) {
	if p.s.isHead() {
		env.Broadcast(headAdMsg{Head: p.s.id, TTL: 2*p.s.k + 1})
	}
}

func (p *headAdPhase) Step(env *sim.Env, in []sim.Message) {
	for _, m := range in {
		am, ok := m.Payload.(headAdMsg)
		if !ok || am.Head == p.s.id {
			continue
		}
		if _, seen := p.s.headsHeard[am.Head]; seen {
			continue
		}
		p.s.headsHeard[am.Head] = headInfo{dist: env.Round(), parent: m.From}
		if am.TTL > 1 {
			env.Broadcast(headAdMsg{Head: am.Head, TTL: am.TTL - 1})
		}
	}
}

// selectedNeighbors returns this head's neighbor clusterhead set with
// virtual distances under the given rule, from purely local knowledge.
func (s *nodeState) selectedNeighbors(rule ncr.Rule) map[int]int {
	sel := make(map[int]int)
	switch rule {
	case ncr.RuleNC:
		for h, info := range s.headsHeard {
			sel[h] = info.dist
		}
	case ncr.RuleANCR:
		for h := range s.adjacentHeads {
			if info, ok := s.headsHeard[h]; ok {
				sel[h] = info.dist
			}
		}
	}
	return sel
}

// --- Phase 4: neighbor-set exchange (LMSTGA line 7) ---------------------
//
// Each head floods its selected neighbor set (with virtual distances)
// within 2k+1 hops so that every head learns the virtual links among its
// own virtual neighbors — exactly the knowledge needed to build the local
// MST on N[u].

type nbrSetPhase struct {
	s   *nodeState
	sel map[int]int // this head's selected neighbors (heads only)
}

func (p *nbrSetPhase) Init(env *sim.Env) {
	if p.s.isHead() {
		env.Broadcast(nbrSetMsg{Head: p.s.id, Neighbors: p.sel, TTL: 2*p.s.k + 1})
	}
}

func (p *nbrSetPhase) Step(env *sim.Env, in []sim.Message) {
	for _, m := range in {
		nm, ok := m.Payload.(nbrSetMsg)
		if !ok || nm.Head == p.s.id {
			continue
		}
		if _, seen := p.s.neighborSets[nm.Head]; seen {
			continue
		}
		cp := make(map[int]int, len(nm.Neighbors))
		for h, d := range nm.Neighbors {
			cp[h] = d
		}
		p.s.neighborSets[nm.Head] = cp
		if nm.TTL > 1 {
			env.Broadcast(nbrSetMsg{Head: nm.Head, Neighbors: nm.Neighbors, TTL: nm.TTL - 1})
		}
	}
}

// keptLinks computes which virtual links this head keeps.
//
// For the mesh scheme every selected neighbor is kept. For LMSTGA the
// head builds its closed virtual neighborhood {u} ∪ N(u) — its own links
// from sel, links among neighbors from their nbrSet broadcasts — and
// keeps its on-tree neighbors of the unique local MST (WGraph.LocalMST,
// the primitive the centralized pipeline runs on the whole virtual graph).
func (s *nodeState) keptLinks(sel map[int]int, useLMST bool) []int {
	if !useLMST {
		out := make([]int, 0, len(sel))
		for v := range sel {
			out = append(out, v)
		}
		sort.Ints(out)
		return out
	}
	var edges []graph.WEdge
	for v, d := range sel {
		edges = append(edges, graph.WEdge{U: s.id, V: v, Weight: d})
		for w, d := range s.neighborSets[v] {
			if _, inSel := sel[w]; inSel && w != s.id {
				edges = append(edges, graph.WEdge{U: v, V: w, Weight: d})
			}
		}
	}
	return graph.NewWGraph([]int{s.id}, edges).LocalMST(s.id)
}

// --- Phase 5: gateway marking -------------------------------------------
//
// For every kept virtual link the path toward the canonical (smaller-ID)
// endpoint is walked along that endpoint's advertisement flood tree, and
// each non-head relay marks itself as a gateway. If only the canonical
// endpoint kept the link, it first routes a mark request to the other
// endpoint (those relays carry control traffic but do not become
// gateways), preserving the invariant that every link is marked along the
// same deterministic path the centralized reference uses.

type markPhase struct {
	s         *nodeState
	kept      []int // other endpoints of links this head keeps
	initiated map[[2]int]bool
}

func (p *markPhase) Init(env *sim.Env) {
	p.initiated = make(map[[2]int]bool)
	if !p.s.isHead() {
		return
	}
	for _, v := range p.kept {
		link := canonLink(p.s.id, v)
		if p.s.id == link[1] {
			// Non-canonical endpoint: mark toward the canonical one.
			p.initiateMark(env, link)
		} else {
			// Canonical endpoint: ask the other side to initiate.
			p.route(env, link[1], markRequestMsg{Target: link[1], Link: link})
		}
	}
}

func (p *markPhase) Step(env *sim.Env, in []sim.Message) {
	for _, m := range in {
		switch msg := m.Payload.(type) {
		case markMsg:
			if msg.Target == p.s.id {
				continue // link fully marked
			}
			if !p.s.isHead() {
				p.s.gateway = true
			}
			p.route(env, msg.Target, msg)
		case markRequestMsg:
			if msg.Target == p.s.id {
				p.initiateMark(env, msg.Link)
				continue
			}
			p.route(env, msg.Target, msg)
		}
	}
}

func (p *markPhase) initiateMark(env *sim.Env, link [2]int) {
	if p.initiated[link] {
		return
	}
	p.initiated[link] = true
	p.route(env, link[0], markMsg{Target: link[0], Other: link[1]})
}

func (p *markPhase) route(env *sim.Env, target int, payload any) {
	info, ok := p.s.headsHeard[target]
	if !ok {
		return // see forwardReport: unreachable on connected instances
	}
	env.Send(info.parent, payload)
}

func canonLink(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
