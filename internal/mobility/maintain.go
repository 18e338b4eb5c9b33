package mobility

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
)

// Role classifies a departing node per §3.3 of the paper, which drives
// how much repair work the departure triggers.
type Role int

const (
	// RoleMember: non-clusterhead, non-gateway — "nothing needs to be
	// done with respect to the existing CDS".
	RoleMember Role = iota
	// RoleGateway: non-clusterhead but gateway — "only the corresponding
	// clusterhead needs to re-run the gateway selection process".
	RoleGateway
	// RoleHead: a clusterhead — "the clusterhead selection process is
	// applied" for the orphaned cluster.
	RoleHead
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleMember:
		return "member"
	case RoleGateway:
		return "gateway"
	case RoleHead:
		return "head"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Classify returns the departing node's role in the current structure.
func Classify(c *cluster.Clustering, res *gateway.Result, node int) Role {
	if c.IsHead(node) {
		return RoleHead
	}
	for _, gw := range res.Gateways {
		if gw == node {
			return RoleGateway
		}
	}
	return RoleMember
}

// EventKind identifies a churn event: the full §3.3 event set.
type EventKind int

const (
	// EventLeave: the node switches off; its edges disappear.
	EventLeave EventKind = iota
	// EventJoin: a departed node switches back on with the given radio
	// links and affiliates (nearest head within k hops, else it becomes
	// a head of its own, per §3's affiliation rules).
	EventJoin
	// EventMove: the node relocates atomically — its old edges are
	// replaced by the given ones in one repair, so the repair scope
	// stays local instead of paying a full leave plus a full join.
	EventMove
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventLeave:
		return "leave"
	case EventJoin:
		return "join"
	case EventMove:
		return "move"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one incremental topology change for ApplyBatch.
type Event struct {
	Kind EventKind
	Node int
	// Neighbors are the node's radio links after a Join or Move; every
	// neighbor must be an alive node. Ignored for Leave.
	Neighbors []int
}

// String implements fmt.Stringer.
func (ev Event) String() string {
	if ev.Kind == EventLeave {
		return fmt.Sprintf("%v(%d)", ev.Kind, ev.Node)
	}
	return fmt.Sprintf("%v(%d, nbrs=%v)", ev.Kind, ev.Node, ev.Neighbors)
}

// RepairReport quantifies one event's repair. It is a comparable value
// (scalars only) so callers can diff reports directly.
type RepairReport struct {
	// Kind is the event that triggered the repair.
	Kind EventKind
	Node int
	// Role is the node's role driving the repair scope: for Leave and
	// Move, the role held before the event; for Join, the role the node
	// assumes (RoleMember when adopted, RoleHead when promoted).
	Role Role
	// ReclusteredNodes counts nodes whose cluster assignment changed
	// (including new heads); zero for member/gateway departures.
	ReclusteredNodes int
	// ReselectedHeads counts clusterheads that had to re-run gateway
	// selection (the "local fix" scope).
	ReselectedHeads int
	// NewHeads counts clusterheads elected during the repair.
	NewHeads int
	// GatewayDirty reports whether this event invalidated the gateway
	// structure. Batched application coalesces all dirty events of one
	// batch into a single selection re-run.
	GatewayDirty bool
	// BatchGatewayRuns is the number of gateway selection runs the whole
	// batch actually performed after coalescing (0 or 1); identical on
	// every report of a batch.
	BatchGatewayRuns int
	// BatchGatewaySaved is how many per-event selection runs coalescing
	// avoided (dirty events minus actual runs); identical on every
	// report of a batch.
	BatchGatewaySaved int
}

// Maintainer owns a network structure and repairs it as the topology
// churns. The repair follows §3.3: events touching plain members are
// free; gateway departures re-run gateway selection for the affected
// heads; clusterhead departures re-cluster the orphaned members (joining
// an adjacent cluster when one is within k hops, otherwise electing new
// heads among the orphans) and then re-run gateway selection. Joins
// affiliate the arriving node with the nearest head within k hops or
// promote it; moves are an atomic leave+join of the same node.
type Maintainer struct {
	G    *graph.Graph // mutated in place as the topology churns
	K    int
	Algo gateway.Algorithm
	C    *cluster.Clustering
	Res  *gateway.Result
	// Sel is the neighbor selection matching Res: the adopted one until
	// a repair re-runs gateway selection, which replaces both.
	Sel   *ncr.Selection
	alive []bool
	// scratch holds the BFS buffers the repair and refresh passes reuse
	// across events; a Maintainer serves one event batch at a time.
	scratch *graph.Scratch
}

// NewMaintainerFrom adopts a built structure for maintenance instead of
// rebuilding it, as §3.3 repairs the structure a build produced. out
// must describe g (any priority, affiliation or election rule is fine —
// repairs only ever re-elect locally with lowest-ID, per §3.3); K comes
// from out.Clustering, the algorithm from out.Gateway and the neighbor
// selection from out.Selection. g is cloned; out's structures are
// referenced but never mutated in place (repairs replace them).
//
// Liveness is inferred from the adopted structure, so a clustering that
// already carries departed slots — self-headed, unlisted, edge-less, the
// convention every Leave repair writes and a restored snapshot carries —
// resumes with those nodes dead: Alive reports false and only a Join
// brings them back. A freshly built structure has no such slot (isolated
// vertices head singleton clusters and are listed), so everything starts
// alive there.
func NewMaintainerFrom(g *graph.Graph, out *core.Output) *Maintainer {
	gc := g.Clone()
	c := out.Clustering
	listed := make([]bool, gc.N())
	for _, h := range c.Heads {
		listed[h] = true
	}
	alive := make([]bool, gc.N())
	for i := range alive {
		alive[i] = c.Head[i] != i || listed[i] || gc.Degree(i) != 0
	}
	return &Maintainer{
		G:       gc,
		K:       c.K,
		Algo:    out.Gateway.Algorithm,
		C:       c,
		Res:     out.Gateway,
		Sel:     out.Selection,
		alive:   alive,
		scratch: graph.NewScratch(),
	}
}

// Output returns the maintained structure: the current clustering, the
// neighbor selection and the gateway result that match it.
func (m *Maintainer) Output() *core.Output {
	return &core.Output{Clustering: m.C, Selection: m.Sel, Gateway: m.Res}
}

// Alive reports whether node is still part of the network.
func (m *Maintainer) Alive(node int) bool { return m.alive[node] }

// ApplyBatch applies a sequence of churn events and repairs the
// structure, coalescing the gateway work: events are repaired at the
// clustering level one by one (so each report's scope is per-event), but
// all events of the batch that dirtied the gateway structure share a
// single selection re-run at the end — multiple events touching the same
// heads trigger one re-selection instead of one per event.
//
// Events are validated before they mutate anything; the batch stops at
// the first invalid event (or when ctx is cancelled) with the
// already-applied repairs reported and the structure refreshed behind
// them, so the Maintainer never goes stale mid-batch.
//
// Beyond the paper's three departure cases, any event can strand *other*
// members whose only ≤ k-hop path to their head ran through the changed
// edges; the repair detects those and re-affiliates them too (adoption
// by a head still within k hops, otherwise a local election), so the
// clustering invariants keep holding on the alive subgraph.
func (m *Maintainer) ApplyBatch(ctx context.Context, events []Event) ([]RepairReport, error) {
	reports := make([]RepairReport, 0, len(events))
	dirtyHeads := make(map[int]bool)
	dirtyEvents := 0
	var firstErr error
	for _, ev := range events {
		if err := ctx.Err(); err != nil {
			firstErr = err
			break
		}
		rep, dirty, err := m.applyOne(ev)
		if err != nil {
			firstErr = err
			break
		}
		if rep.GatewayDirty {
			dirtyEvents++
			for h := range dirty {
				dirtyHeads[h] = true
			}
		}
		reports = append(reports, rep)
	}
	// Refresh even when the batch stopped early, so the structure never
	// goes stale behind repairs that did apply; the refresh itself runs
	// under a background context for the same reason.
	runs := 0
	if dirtyEvents > 0 {
		if err := m.refreshGateways(dirtyHeads); err != nil && firstErr == nil {
			firstErr = err
		}
		runs = 1
	}
	for i := range reports {
		reports[i].BatchGatewayRuns = runs
		reports[i].BatchGatewaySaved = dirtyEvents - runs
	}
	return reports, firstErr
}

// applyOne mutates the graph and repairs the clustering for one event,
// deferring gateway re-selection to the caller. It returns the event's
// report and the set of heads whose gateway neighborhoods it dirtied.
func (m *Maintainer) applyOne(ev Event) (RepairReport, map[int]bool, error) {
	switch ev.Kind {
	case EventLeave:
		return m.applyLeave(ev.Node)
	case EventJoin:
		return m.applyJoin(ev.Node, ev.Neighbors)
	case EventMove:
		return m.applyMove(ev.Node, ev.Neighbors)
	default:
		return RepairReport{}, nil, fmt.Errorf("mobility: unknown event kind %d", int(ev.Kind))
	}
}

func (m *Maintainer) applyLeave(node int) (RepairReport, map[int]bool, error) {
	if node < 0 || node >= m.G.N() {
		return RepairReport{}, nil, fmt.Errorf("mobility: leave(%d): node out of range [0,%d)", node, m.G.N())
	}
	if !m.alive[node] {
		return RepairReport{}, nil, fmt.Errorf("mobility: leave(%d): node already departed", node)
	}
	role := Classify(m.C, m.Res, node)
	rep := RepairReport{Kind: EventLeave, Node: node, Role: role}

	var dirty map[int]bool
	if role == RoleGateway {
		dirty = m.headsUsing(node)
		rep.ReselectedHeads = len(dirty)
	}

	// Only nodes within k hops of the departing node (in the graph it is
	// about to leave) can lose their head path: a ≤ k-hop path through
	// node keeps both endpoints inside its k-ball. That ball is the whole
	// repair scope — the locality §3.3 argues for.
	suspects := m.ball(node)

	m.alive[node] = false
	m.G.RemoveVertexEdges(node)

	var demoted map[int]bool
	if role == RoleHead {
		demoted = map[int]bool{node: true}
	}
	c, reclustered, newHeads, err := m.repair(nil, demoted, suspects)
	if err != nil {
		return rep, dirty, err
	}
	m.C = c
	rep.ReclusteredNodes, rep.NewHeads = reclustered, newHeads
	if role == RoleHead {
		rep.ReselectedHeads = len(m.C.Heads)
	}
	rep.GatewayDirty = role != RoleMember || reclustered > 0
	return rep, dirty, nil
}

func (m *Maintainer) applyJoin(node int, neighbors []int) (RepairReport, map[int]bool, error) {
	if node < 0 || node >= m.G.N() {
		return RepairReport{}, nil, fmt.Errorf("mobility: join(%d): node out of range [0,%d)", node, m.G.N())
	}
	if m.alive[node] {
		return RepairReport{}, nil, fmt.Errorf("mobility: join(%d): node is already alive", node)
	}
	if err := m.checkNeighbors("join", node, neighbors); err != nil {
		return RepairReport{}, nil, err
	}
	m.alive[node] = true
	for _, w := range neighbors {
		m.G.AddEdge(node, w)
	}
	rep := RepairReport{Kind: EventJoin, Node: node, ReclusteredNodes: 1}
	if h, d, ok := cluster.Affiliate(m.G, m.scratch, m.survivingHeads(), node, m.K); ok {
		// Adoption: the arrival affiliates with an existing cluster — free
		// for the CDS, exactly like a member departure in reverse — unless
		// its new links bridge foreign clusters (see adjacencyDirty).
		rep.Role = RoleMember
		m.C = m.withAssignment(node, h, d)
		if dirty := m.adjacencyDirty(node, neighbors); dirty != nil {
			rep.GatewayDirty = true
			rep.ReselectedHeads = len(dirty)
			return rep, dirty, nil
		}
		return rep, nil, nil
	}
	// No head within k hops: the arrival declares itself clusterhead.
	// Its k-hop ball holds no other head, so head independence survives;
	// the new head must be wired into the CDS, dirtying the gateways.
	rep.Role = RoleHead
	rep.NewHeads = 1
	rep.GatewayDirty = true
	m.C = m.withAssignment(node, node, 0)
	rep.ReselectedHeads = 1
	return rep, map[int]bool{node: true}, nil
}

func (m *Maintainer) applyMove(node int, neighbors []int) (RepairReport, map[int]bool, error) {
	if node < 0 || node >= m.G.N() {
		return RepairReport{}, nil, fmt.Errorf("mobility: move(%d): node out of range [0,%d)", node, m.G.N())
	}
	if !m.alive[node] {
		return RepairReport{}, nil, fmt.Errorf("mobility: move(%d): node is not alive (apply a join instead)", node)
	}
	if err := m.checkNeighbors("move", node, neighbors); err != nil {
		return RepairReport{}, nil, err
	}
	role := Classify(m.C, m.Res, node)
	rep := RepairReport{Kind: EventMove, Node: node, Role: role}

	var dirty map[int]bool
	if role == RoleGateway {
		dirty = m.headsUsing(node)
		rep.ReselectedHeads = len(dirty)
	}

	// As with a departure, only the k-ball around the mover's *old*
	// position can be stranded by its vanished links; the mover itself
	// is re-affiliated unconditionally at its new position.
	suspects := m.ball(node)

	// The atomic leave+join: old links vanish and new links appear in
	// one graph mutation, then a single repair pass re-affiliates the
	// mover (and anyone its old links stranded).
	m.G.RemoveVertexEdges(node)
	for _, w := range neighbors {
		m.G.AddEdge(node, w)
	}

	var demoted map[int]bool
	if role == RoleHead {
		// A moving head abandons its cluster: members re-affiliate as if
		// the head departed, and the mover itself re-joins at the new
		// location like any orphan (it may well be re-elected there).
		demoted = map[int]bool{node: true}
	}
	c, reclustered, newHeads, err := m.repair([]int{node}, demoted, suspects)
	if err != nil {
		return rep, dirty, err
	}
	m.C = c
	rep.ReclusteredNodes, rep.NewHeads = reclustered, newHeads
	if role == RoleHead {
		rep.ReselectedHeads = len(m.C.Heads)
	}
	rep.GatewayDirty = role != RoleMember || reclustered > 0
	// Even a plain member's relocation can bridge foreign clusters with
	// its new links; those heads must re-run gateway selection.
	if adj := m.adjacencyDirty(node, neighbors); adj != nil {
		rep.GatewayDirty = true
		if dirty == nil {
			dirty = adj
		} else {
			for h := range adj {
				dirty[h] = true
			}
		}
		// Keep the reported repair scope in sync with the merged set (a
		// head move already reports the whole head set).
		if role != RoleHead {
			rep.ReselectedHeads = len(dirty)
		}
	}
	return rep, dirty, nil
}

// adjacencyDirty returns the heads whose clusters gained a radio
// adjacency through node's new links — node's own head plus the head of
// every new neighbor assigned to a different cluster — or nil when all
// links stay inside node's cluster. §3.3 treats member-level events as
// free for the CDS, but that argument covers departures only: an added
// inter-cluster edge changes the adjacent-cluster graph and can even
// merge two components of G, so the affected heads must re-run gateway
// selection or the merged components stay unwired. Call after the
// clustering reflects the event.
func (m *Maintainer) adjacencyDirty(node int, neighbors []int) map[int]bool {
	h := m.C.Head[node]
	var dirty map[int]bool
	for _, w := range neighbors {
		if hw := m.C.Head[w]; hw != h {
			if dirty == nil {
				dirty = map[int]bool{h: true}
			}
			dirty[hw] = true
		}
	}
	return dirty
}

// checkNeighbors validates a Join/Move neighbor list before any
// mutation: every neighbor must be an alive node other than the event's
// own node, so the internal graph layer never sees an out-of-range
// vertex. Duplicate neighbors are allowed — edge insertion is
// idempotent.
func (m *Maintainer) checkNeighbors(kind string, node int, neighbors []int) error {
	for _, w := range neighbors {
		if w < 0 || w >= m.G.N() {
			return fmt.Errorf("mobility: %s(%d): neighbor %d out of range [0,%d)", kind, node, w, m.G.N())
		}
		if w == node {
			return fmt.Errorf("mobility: %s(%d): node cannot neighbor itself", kind, node)
		}
		if !m.alive[w] {
			return fmt.Errorf("mobility: %s(%d): neighbor %d is not alive", kind, node, w)
		}
	}
	return nil
}

// survivingHeads returns the alive clusterheads.
func (m *Maintainer) survivingHeads() []int {
	heads := make([]int, 0, len(m.C.Heads))
	for _, h := range m.C.Heads {
		if m.alive[h] {
			heads = append(heads, h)
		}
	}
	return heads
}

// headsUsing returns the heads with at least one selected link whose
// gateway path used the given node — the set that re-runs selection
// locally when that node's edges change.
func (m *Maintainer) headsUsing(node int) map[int]bool {
	heads := make(map[int]bool)
	for link, path := range m.Res.Paths {
		for _, v := range path {
			if v == node {
				heads[link[0]] = true
				heads[link[1]] = true
			}
		}
	}
	return heads
}

// withAssignment returns a copy of the current clustering with node
// assigned to head at the given distance (dead slots made inert), the
// single-node update a Join affiliation needs.
func (m *Maintainer) withAssignment(node, head, dist int) *cluster.Clustering {
	nc := &cluster.Clustering{
		K:          m.C.K,
		Head:       append([]int(nil), m.C.Head...),
		DistToHead: append([]int(nil), m.C.DistToHead...),
		Rounds:     m.C.Rounds,
	}
	nc.Head[node] = head
	nc.DistToHead[node] = dist
	m.normalize(nc)
	return nc
}

// normalize makes dead slots inert (they head themselves without being
// listed) and rebuilds the sorted alive head list from the assignments.
func (m *Maintainer) normalize(c *cluster.Clustering) {
	for v := range c.Head {
		if !m.alive[v] {
			c.Head[v] = v
			c.DistToHead[v] = 0
		}
	}
	heads := make([]int, 0, len(c.Heads))
	for v, h := range c.Head {
		if h == v && m.alive[v] {
			heads = append(heads, v)
		}
	}
	sort.Ints(heads)
	c.Heads = heads
}

// repair re-derives the clustering after the graph mutated: heads in
// demoted lose head status, nodes in forced re-affiliate whatever their
// state, and every other alive suspect whose head is dead, demoted, or
// now farther than k hops (its path ran through changed edges) joins a
// surviving head still within k hops, or elects new heads among the
// stranded (iterative lowest-ID, exactly the base algorithm). Returns
// the new clustering, how many nodes changed assignment, and how many
// new heads emerged.
//
// suspects bounds the repair scope: the k-hop ball around the changed
// node in the pre-event graph. Every possible violator lies inside it —
// a member's ≤ k-hop head path through the changed node keeps the member
// within k hops of that node — so nodes outside are never re-examined,
// which is what makes repairs local (and cheap) rather than global. All
// ball walks run in the Maintainer's scratch and allocate nothing.
func (m *Maintainer) repair(forced []int, demoted map[int]bool, suspects []int) (*cluster.Clustering, int, int, error) {
	head := append([]int(nil), m.C.Head...)
	distToHead := append([]int(nil), m.C.DistToHead...)

	surviving := make(map[int]bool, len(m.C.Heads))
	for _, h := range m.C.Heads {
		if m.alive[h] && !demoted[h] {
			surviving[h] = true
		}
	}

	// Violators among the suspects (plus the forced nodes): orphans of a
	// dead or demoted head, and members whose head drifted out of reach.
	// Each suspect is checked with one local k-ball walk.
	orphanSet := make(map[int]bool, len(forced))
	for _, v := range forced {
		if m.alive[v] {
			orphanSet[v] = true
		}
	}
	for _, v := range suspects {
		if !m.alive[v] || orphanSet[v] {
			continue
		}
		h := head[v]
		if v == h {
			if demoted[v] {
				orphanSet[v] = true
			}
			continue
		}
		if !m.alive[h] || demoted[h] {
			orphanSet[v] = true
			continue
		}
		if d := m.ballDist(v, h); d >= 0 {
			distToHead[v] = d // refresh: the detour may be longer now
		} else {
			orphanSet[v] = true
		}
	}
	orphans := make([]int, 0, len(orphanSet))
	for v := range orphanSet {
		orphans = append(orphans, v)
	}
	sort.Ints(orphans)
	if len(orphans) == 0 {
		nc := &cluster.Clustering{
			K:          m.K,
			Head:       head,
			DistToHead: distToHead,
			Rounds:     m.C.Rounds,
		}
		m.normalize(nc)
		return nc, 0, 0, nil
	}

	// Pass 1: adoption by existing clusters whose head is within k hops —
	// the same single-node affiliation rule a Join applies (nearest
	// first, lowest ID on ties).
	stranded := make(map[int]bool)
	reclustered := 0
	for _, v := range orphans {
		bestHead, bestDist, ok := cluster.AffiliateIn(m.G, m.scratch, surviving, v, m.K)
		if ok {
			if head[v] != bestHead {
				reclustered++
			}
			head[v] = bestHead
			distToHead[v] = bestDist
		} else {
			stranded[v] = true
		}
	}

	// Pass 2: local election among stranded orphans on the subgraph they
	// can still reach (iterative lowest-ID, exactly the base algorithm).
	newHeads := 0
	for len(stranded) > 0 {
		// Lowest ID among stranded wins within its k-hop ball.
		cand := make([]int, 0, len(stranded))
		for v := range stranded {
			cand = append(cand, v)
		}
		sort.Ints(cand)
		winner := -1
		for _, v := range cand {
			isBeaten := false
			m.G.EachWithin(m.scratch, v, m.K, func(w, _ int) bool {
				if w < v && stranded[w] {
					isBeaten = true
					return false
				}
				return true
			})
			if !isBeaten {
				winner = v
				break
			}
		}
		if winner < 0 {
			return nil, 0, 0, fmt.Errorf("mobility: stranded election stalled with %d orphans", len(stranded))
		}
		if head[winner] != winner {
			newHeads++
			reclustered++
		}
		head[winner] = winner
		distToHead[winner] = 0
		delete(stranded, winner)
		m.G.EachWithin(m.scratch, winner, m.K, func(w, d int) bool {
			if stranded[w] {
				if head[w] != winner {
					reclustered++
				}
				head[w] = winner
				distToHead[w] = d
				delete(stranded, w)
			}
			return true
		})
	}

	nc := &cluster.Clustering{
		K:          m.K,
		Head:       head,
		DistToHead: distToHead,
		Rounds:     m.C.Rounds + 1,
	}
	m.normalize(nc)
	return nc, reclustered, newHeads, nil
}

// ball collects the k-hop ball around node (node included) into a fresh
// slice that stays valid across the graph mutations that follow.
func (m *Maintainer) ball(node int) []int {
	out := make([]int, 0, 16)
	m.G.EachWithin(m.scratch, node, m.K, func(v, _ int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// ballDist returns the hop distance from v to h when it is ≤ K, else -1,
// with one early-exiting local ball walk.
func (m *Maintainer) ballDist(v, h int) int {
	found := -1
	m.G.EachWithin(m.scratch, v, m.K, func(w, d int) bool {
		if w == h {
			found = d
			return false
		}
		return true
	})
	return found
}

// refreshGateways re-runs neighbor and gateway selection once for the
// repaired clustering, reusing from the previous result every gateway
// path the batch did not touch (see gateway.RunSelectedFrom). Both
// stages share one CSR snapshot of the repaired graph. It always runs to
// completion — the repairs it materializes already happened.
func (m *Maintainer) refreshGateways(dirtyHeads map[int]bool) error {
	ctx := context.Background()
	fg := graph.Flatten(m.G)
	sel, err := ncr.SelectPar(ctx, m.G, fg, m.C, m.Algo.NeighborRule(), m.scratch, nil)
	if err != nil {
		return err
	}
	res, err := gateway.RunSelectedFrom(ctx, m.G, fg, m.C, sel, m.Algo, m.scratch, m.Res, dirtyHeads)
	if err != nil {
		return err
	}
	m.Sel, m.Res = sel, res
	return nil
}
