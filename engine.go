package khop

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/mobility"
	"repro/internal/partition"
	"repro/internal/proto"
)

// Mode selects how an Engine computes a build.
type Mode int

const (
	// Centralized computes the pipeline directly on the graph — the
	// fastest way to obtain the paper's structures.
	Centralized Mode = iota
	// Distributed runs the genuine message-passing protocol (one
	// goroutine per node, bounded flooding; see internal/proto) and
	// reports its message complexity in Result.Cost. G-MST and the
	// size-based affiliation rule are centralized by definition and are
	// rejected in this mode.
	Distributed
	// MaxMin swaps the iterative lowest-ID election for Max-Min d-cluster
	// formation (Amis et al., the paper's reference [2]); the resulting
	// heads are not k-hop independent (Result.IndependentHeads is false).
	// Priority and affiliation options do not apply.
	MaxMin
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Centralized:
		return "centralized"
	case Distributed:
		return "distributed"
	case MaxMin:
		return "max-min"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// engineConfig is the resolved option set of an Engine (or of one Build
// call, after per-call overrides).
type engineConfig struct {
	k           int
	algorithm   Algorithm
	affiliation Affiliation
	affSet      bool
	priority    Priority
	mode        Mode
	seed        int64
	loss        float64
	parallel    int
}

func defaultConfig() engineConfig {
	return engineConfig{k: 1, algorithm: ACLMST, parallel: 1}
}

// workers resolves the configured parallelism to a worker count.
func (c *engineConfig) workers() int {
	if c.parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.parallel
}

// Option configures an Engine (see NewEngine) or a single build (see
// Engine.Build).
type Option func(*engineConfig)

// WithK sets the cluster radius in hops (default 1). Every member ends
// up within K hops of its clusterhead.
func WithK(k int) Option { return func(c *engineConfig) { c.k = k } }

// WithAlgorithm sets the pipeline to run (default ACLMST, the paper's
// headline algorithm).
func WithAlgorithm(a Algorithm) Option { return func(c *engineConfig) { c.algorithm = a } }

// WithAffiliation sets the member-affiliation rule (default
// AffiliationID). AffiliationSize needs global size knowledge and is
// rejected in Distributed mode.
func WithAffiliation(a Affiliation) Option {
	return func(c *engineConfig) { c.affiliation = a; c.affSet = true }
}

// WithPriority sets the clusterhead election priority (default lowest
// ID). It must rank every two nodes strictly apart: Build reads each
// node's rank once and returns an error naming two nodes that rank
// equal. MaxMin mode elects by the Max-Min rules and rejects a custom
// priority.
func WithPriority(p Priority) Option { return func(c *engineConfig) { c.priority = p } }

// WithMode selects Centralized (default), Distributed, or MaxMin.
func WithMode(m Mode) Option { return func(c *engineConfig) { c.mode = m } }

// WithSeed seeds the randomized parts of a build. Deterministic builds
// ignore it; today it drives the distributed protocol's message-loss
// injection (see WithLoss).
func WithSeed(seed int64) Option { return func(c *engineConfig) { c.seed = seed } }

// WithParallel shards every phase of a build — election rounds,
// neighbor clusterhead selection, gateway path and local-MST fan-outs —
// across n workers, each with its own pooled traversal scratch (default
// 1, serial; n <= 0 means all CPU cores). The paper's construction is
// local — every decision reads a bounded ball around one node — so
// phases split into independent read-only walks whose outputs merge in
// a fixed order: the Result is bitwise identical to a serial build for
// any n, and goldens, differential tests, and incremental maintenance
// are unaffected by the worker count. In Distributed mode the protocol itself already runs one
// goroutine per node; n applies to the centralized gateway-path
// materialization pass.
func WithParallel(n int) Option { return func(c *engineConfig) { c.parallel = n } }

// WithLoss injects per-delivery message loss with the given probability
// into Distributed builds (default 0, the paper's ideal MAC). With loss
// the protocol still terminates but its guarantees degrade; WithSeed
// makes the drop decisions reproducible. Lossy Results carry no
// GatewayPaths (the degraded marks may not match any loss-free path
// set), so NewRouter and NewBroadcastPlan reject them explicitly. Loss
// does not apply to the centralized modes.
func WithLoss(p float64) Option { return func(c *engineConfig) { c.loss = p } }

func (c *engineConfig) validate() error {
	if c.k < 1 {
		return fmt.Errorf("khop: K must be ≥ 1, got %d", c.k)
	}
	switch c.algorithm {
	case NCMesh, ACMesh, NCLMST, ACLMST, GMST:
	default:
		return fmt.Errorf("khop: unknown algorithm %d", int(c.algorithm))
	}
	switch c.affiliation {
	case AffiliationID, AffiliationDistance, AffiliationSize:
	default:
		return fmt.Errorf("khop: unknown affiliation %d", int(c.affiliation))
	}
	if c.loss < 0 || c.loss >= 1 {
		return fmt.Errorf("khop: loss probability %v outside [0, 1)", c.loss)
	}
	switch c.mode {
	case Centralized:
	case Distributed:
		if c.algorithm == GMST {
			return fmt.Errorf("khop: %v is centralized by definition and has no distributed implementation", GMST)
		}
		if c.affiliation == AffiliationSize {
			return fmt.Errorf("khop: %v needs global size knowledge and is not supported in %v mode", AffiliationSize, Distributed)
		}
	case MaxMin:
		if c.priority != nil {
			return fmt.Errorf("khop: %v mode elects by the Max-Min rules and does not take a priority", MaxMin)
		}
		if c.affSet {
			return fmt.Errorf("khop: %v mode assigns members by the Max-Min rules and does not take an affiliation", MaxMin)
		}
	default:
		return fmt.Errorf("khop: unknown mode %d", int(c.mode))
	}
	if c.loss != 0 && c.mode != Distributed {
		return fmt.Errorf("khop: message loss only applies to %v mode", Distributed)
	}
	return nil
}

// Engine is the single entry point for building and maintaining the
// paper's connected k-hop clustering structures. Construct one per graph
// and workload with NewEngine, then call Build for (repeated) builds and
// Apply for incremental maintenance as the network churns.
//
// An Engine is safe for concurrent Builds: per-build scratch memory is
// pooled, so steady-state rebuilds on large graphs stay near-zero-alloc
// beyond the result structures themselves. Apply serializes internally.
type Engine struct {
	g   *Graph
	cfg engineConfig

	// scratch pools the per-build working buffers (BFS queues, epoch
	// visited sets, election offers) threaded through internal/core,
	// internal/cluster, internal/graph, and internal/gateway.
	scratch sync.Pool

	mu sync.Mutex
	// out is the last successful Build's structure (or the restored
	// one): the base the first Apply adopts into maint. cur is the
	// Result view of whichever of the two is current.
	out   *core.Output
	maint *mobility.Maintainer
	cur   *Result
}

// NewEngine validates the options and returns an Engine for g. The
// defaults are the paper's: K = 1, AC-LMST, lowest-ID election, ID-based
// affiliation, centralized computation.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{g: g, cfg: cfg}
	e.scratch.New = func() any { return core.NewScratch() }
	return e, nil
}

// Build runs the configured pipeline and returns a self-contained
// Result: whatever the mode, the Result always carries the gateway paths
// NewRouter and NewBroadcastPlan need, and Distributed builds also carry
// the protocol's message complexity in Result.Cost.
//
// Per-call overrides apply on top of the Engine's options for this build
// only — e.g. e.Build(ctx, WithK(3)) — and are validated the same way.
// Cancelling ctx aborts the election, flood, and gateway-selection hot
// loops and returns the context's error.
//
// The most recent successful Build becomes the base structure that Apply
// maintains incrementally.
func (e *Engine) Build(ctx context.Context, overrides ...Option) (*Result, error) {
	cfg := e.cfg
	for _, o := range overrides {
		o(&cfg)
	}
	if len(overrides) > 0 {
		if err := cfg.validate(); err != nil {
			return nil, err
		}
	}

	s := e.scratch.Get().(*core.Scratch)
	defer e.scratch.Put(s)
	// Each in-flight build owns its scratch, so it owns the pool's
	// per-worker buffers too; concurrent Builds never share workers.
	pool := s.Par(cfg.workers())

	var (
		out  *core.Output
		cost *Cost
		err  error
	)
	switch cfg.mode {
	case Centralized:
		out, err = core.BuildCtx(ctx, e.g.g, core.Options{
			K:           cfg.k,
			Algorithm:   cfg.algorithm,
			Priority:    cfg.priority,
			Affiliation: cfg.affiliation,
			Scratch:     s,
			Pool:        pool,
		})
	case Distributed:
		out, cost, err = e.buildDistributed(ctx, cfg, s, pool)
	case MaxMin:
		out, err = e.buildMaxMin(ctx, cfg, s, pool)
	}
	if err != nil {
		return nil, err
	}

	res := assemble(out)
	res.IndependentHeads = cfg.mode != MaxMin
	res.Cost = cost

	e.mu.Lock()
	e.out, e.maint, e.cur = out, nil, res
	e.mu.Unlock()
	return res, nil
}

// buildDistributed runs the message-passing protocol, then materializes
// the gateway paths with one centralized selection pass over the
// protocol's own clustering — the two implementations are equivalent
// (see the equivalence tests), so this only adds the path bookkeeping
// the protocol does not transmit, keeping the Result self-contained.
func (e *Engine) buildDistributed(ctx context.Context, cfg engineConfig, s *core.Scratch, pool *partition.Pool) (*core.Output, *Cost, error) {
	popt, err := proto.AlgorithmOptions(cfg.k, cfg.algorithm)
	if err != nil {
		return nil, nil, err
	}
	popt.Priority = cfg.priority
	popt.Affiliation = cfg.affiliation
	popt.Loss = cfg.loss
	popt.LossSeed = cfg.seed
	pres, err := proto.RunCtx(ctx, e.g.g, popt)
	if err != nil {
		return nil, nil, err
	}
	// The gateway set and CDS are the protocol's own marks (identical to
	// the centralized ones under the ideal MAC; the equivalence tests
	// compare exactly this). Only the path bookkeeping comes from a
	// centralized pass — and only when no loss was injected: a lossy
	// protocol's marks can diverge from the loss-free paths, and a
	// Result whose Gateways and GatewayPaths disagree would be worse
	// than one that reports, via ErrNoGatewayPaths, that its paths are
	// unknown.
	gres := &gateway.Result{
		Algorithm: cfg.algorithm,
		Gateways:  pres.Gateways,
		CDS:       pres.CDS,
	}
	if cfg.loss == 0 {
		central, err := gateway.RunSelectedPar(ctx, e.g.g, graph.Flatten(e.g.g), pres.Clustering, pres.Selection, cfg.algorithm, s.BFS(), pool)
		if err != nil {
			return nil, nil, err
		}
		gres.Links = central.Links
		gres.Paths = central.Paths
	}
	cost := &Cost{
		Rounds:        pres.Total.Rounds,
		Transmissions: pres.Total.Transmissions,
		Deliveries:    pres.Total.Deliveries,
	}
	for _, ph := range pres.Phases {
		cost.Phases = append(cost.Phases, PhaseCost{
			Name:          ph.Name,
			Rounds:        ph.Stats.Rounds,
			Transmissions: ph.Stats.Transmissions,
			Deliveries:    ph.Stats.Deliveries,
		})
	}
	out := &core.Output{Clustering: pres.Clustering, Selection: pres.Selection, Gateway: gres}
	return out, cost, nil
}

func (e *Engine) buildMaxMin(ctx context.Context, cfg engineConfig, s *core.Scratch, pool *partition.Pool) (*core.Output, error) {
	fg := graph.Flatten(e.g.g)
	c, err := maxmin.RunPar(ctx, e.g.g, fg, cfg.k, s.BFS(), pool)
	if err != nil {
		return nil, err
	}
	return core.Connect(ctx, e.g.g, fg, c, cfg.algorithm, s.BFS(), pool)
}

// Result returns the Engine's current structure: the last Build result,
// updated by any Apply calls since. It is nil before the first
// successful Build.
func (e *Engine) Result() *Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur
}

// CurrentGraph returns a copy of the topology the Engine's current
// Result describes: the graph it was constructed with, with every
// applied churn event folded in (departed nodes are edge-less slots,
// Join/Move links are present). Before any Apply it is simply a copy of
// the construction graph. The copy is the caller's to keep — snapshot
// it, diff it, mutate it — without racing ongoing Apply calls.
//
// CurrentGraph and Result together are a consistent pair only when no
// Apply runs between the two calls; callers that need an atomic view
// (e.g. a snapshot under concurrent churn) must serialize externally.
func (e *Engine) CurrentGraph() *Graph {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.maint != nil {
		return &Graph{g: e.maint.G.Clone()}
	}
	return &Graph{g: e.g.g.Clone()}
}

// RestoreEngine reconstructs an Engine around a previously built Result
// — typically one decoded from a snapshot (see internal/codec) — so a
// deployment survives process restarts: queries and incremental Apply
// continue from the restored structure without a rebuild. g must be the
// topology the Result describes (Engine.CurrentGraph at snapshot time),
// and opts must restate at least the K and Algorithm the Result echoes;
// a mismatch is rejected, as is a Result that fails VerifyResult or
// carries no GatewayPaths.
//
// Departed nodes in the restored topology (edge-less self-headed slots,
// the Engine.Apply convention) stay departed: Alive reports false for
// them and a Join brings them back, exactly as before the restart. A
// fresh Build on a restored engine rebuilds from the restored topology,
// where departed nodes are isolated vertices (each would come back as a
// singleton head) — restart churned deployments through Apply, not
// Build.
func RestoreEngine(g *Graph, res *Result, opts ...Option) (*Engine, error) {
	e, err := NewEngine(g, opts...)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("khop: restore: nil result")
	}
	if e.cfg.k != res.K || e.cfg.algorithm != res.Algorithm {
		return nil, fmt.Errorf("khop: restore: engine options (K=%d, %v) do not match the result (K=%d, %v)",
			e.cfg.k, e.cfg.algorithm, res.K, res.Algorithm)
	}
	if err := VerifyResult(g, res); err != nil {
		return nil, fmt.Errorf("khop: restore: %w", err)
	}
	out, err := res.internals()
	if err != nil {
		return nil, fmt.Errorf("khop: restore: %w", err)
	}
	e.out, e.cur = out, res
	// Adopt the maintainer eagerly (Apply adopts a build lazily) so
	// liveness queries and the first Apply see the restored departed
	// slots.
	e.maint = mobility.NewMaintainerFrom(e.g.g, out)
	return e, nil
}

// Alive reports whether node v is still part of the maintained network
// (every in-range node is alive until an applied Leave removes it).
func (e *Engine) Alive(v int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v < 0 || v >= e.g.N() {
		return false
	}
	if e.maint == nil {
		return true
	}
	return e.maint.Alive(v)
}

// Event is an incremental topology change for Engine.Apply: the full
// §3.3 churn event set. Construct events with Leave, Join, and Move.
type Event struct {
	kind      eventKind
	node      int
	neighbors []int
}

type eventKind int

const (
	eventLeave eventKind = iota
	eventJoin
	eventMove
)

// Leave is the departure of node v: it switches off or moves away, per
// the paper's §3.3 dynamic-maintenance scenario.
func Leave(v int) Event { return Event{kind: eventLeave, node: v} }

// Join is the arrival of a previously departed node v: it switches back
// on with the given radio links and affiliates per §3's rules — with the
// nearest clusterhead within k hops (free for the CDS), or, when none is
// in reach, as a new clusterhead (triggering gateway re-selection).
// Every neighbor must be an alive node; a Join with no neighbors is a
// node switching on in radio silence, which heads its own singleton
// cluster.
func Join(v int, neighbors ...int) Event {
	return Event{kind: eventJoin, node: v, neighbors: neighbors}
}

// Move relocates alive node v: its old radio links are replaced by the
// given ones in one atomic leave+join, so the repair scope stays local —
// one repair pass re-affiliates the mover (and anyone its old links
// stranded) instead of paying a full departure plus a full arrival.
func Move(v int, neighbors ...int) Event {
	return Event{kind: eventMove, node: v, neighbors: neighbors}
}

// String implements fmt.Stringer.
func (ev Event) String() string {
	switch ev.kind {
	case eventLeave:
		return fmt.Sprintf("leave(%d)", ev.node)
	case eventJoin:
		return fmt.Sprintf("join(%d, nbrs=%v)", ev.node, ev.neighbors)
	case eventMove:
		return fmt.Sprintf("move(%d, nbrs=%v)", ev.node, ev.neighbors)
	default:
		return fmt.Sprintf("event(%d, %d)", int(ev.kind), ev.node)
	}
}

// mobilityKind maps the facade event kinds onto the maintainer's.
func (k eventKind) mobilityKind() EventKind {
	switch k {
	case eventJoin:
		return EventJoin
	case eventMove:
		return EventMove
	default:
		return EventLeave
	}
}

// Apply incrementally maintains the last built structure through the
// given events, per §3.3: events touching plain members are free, a
// gateway departure or move re-runs gateway selection for the affected
// heads, a clusterhead departure or move re-clusters the orphans first,
// and an arrival affiliates with a head within k hops or becomes a new
// head. One RepairReport is returned per event; Result reflects the
// repaired structure afterwards.
//
// Events are applied as one batch with the gateway repairs coalesced:
// however many events of the batch dirtied the gateway structure, the
// selection re-runs once at the end (reusing every gateway path the
// batch did not touch), and each report carries the batch's coalescing
// stats. Join and Move add radio links, which can pull two previously
// independent heads within k hops of each other, so after the first such
// event Result.IndependentHeads turns false (Leave-only churn preserves
// independence).
//
// Apply needs a successful Build first and aborts mid-sequence — with
// the already-applied repairs reported, and Result reflecting them —
// when ctx is cancelled or an event fails. Malformed events (nodes or
// neighbors outside [0, N), self-neighbors) are rejected up front before
// anything mutates. The engine's own graph is never mutated: maintenance
// runs on a private copy, so Build always rebuilds from the full
// network.
func (e *Engine) Apply(ctx context.Context, events ...Event) ([]RepairReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.out == nil {
		return nil, fmt.Errorf("khop: Apply needs a successful Build first")
	}
	// Validate shapes before any event mutates the maintained structure,
	// so a malformed batch is rejected whole with a descriptive error
	// instead of panicking in the graph layer partway through.
	// Liveness-dependent checks (double leaves, joins of alive nodes,
	// departed neighbors) stay with the maintainer, which knows the
	// liveness state mid-batch.
	n := e.g.N()
	for _, ev := range events {
		if ev.node < 0 || ev.node >= n {
			return nil, fmt.Errorf("khop: %v: node out of range [0,%d)", ev, n)
		}
		for _, w := range ev.neighbors {
			if w < 0 || w >= n {
				return nil, fmt.Errorf("khop: %v: neighbor %d out of range [0,%d)", ev, w, n)
			}
			if w == ev.node {
				return nil, fmt.Errorf("khop: %v: node cannot neighbor itself", ev)
			}
		}
	}
	if e.maint == nil {
		e.maint = mobility.NewMaintainerFrom(e.g.g, e.out)
	}
	batch := make([]mobility.Event, len(events))
	for i, ev := range events {
		batch[i] = mobility.Event{Kind: ev.kind.mobilityKind(), Node: ev.node, Neighbors: ev.neighbors}
	}
	reports, firstErr := e.maint.ApplyBatch(ctx, batch)
	// Refresh even when the batch stopped early, so Result never goes
	// stale behind repairs that did apply.
	if len(reports) > 0 {
		// Independence is forfeited only by events that actually added
		// radio links; a zero-neighbor Join or Move (radio silence)
		// removes edges at most and keeps every head pair > k hops apart.
		edgesAdded := false
		for i := range reports {
			if reports[i].Kind != EventLeave && len(events[i].neighbors) > 0 {
				edgesAdded = true
			}
		}
		res := assemble(e.maint.Output())
		res.IndependentHeads = e.cur.IndependentHeads && !edgesAdded
		e.cur = res
	}
	return reports, firstErr
}
