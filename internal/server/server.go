// Package server is the khopd deployment server: a long-running HTTP/JSON
// facade over many named khop deployments, each an Engine plus its
// application structures (hierarchical router, CDS broadcast plan), with
// durable state through internal/codec snapshots and a per-deployment
// write-ahead log (internal/wal).
//
// API (versioned under /v1; all bodies JSON unless noted):
//
//	POST   /v1/deployments                  build a deployment (random network or explicit edges)
//	GET    /v1/deployments                  list deployment summaries
//	GET    /v1/deployments/{id}             one deployment's summary
//	DELETE /v1/deployments/{id}             drop a deployment (and its persisted state)
//	POST   /v1/deployments/{id}/events      apply a churn batch (Join/Leave/Move) through Engine.Apply
//	GET    /v1/deployments/{id}/route       ?src=&dst= — hierarchical route
//	GET    /v1/deployments/{id}/broadcast   ?src= — simulate a CDS-confined broadcast
//	GET    /v1/deployments/{id}/cds         the current structure (heads, gateways, CDS)
//	GET    /v1/deployments/{id}/snapshot    the deployment as a .khop blob (application/octet-stream)
//	POST   /v1/deployments/{id}/snapshot    restore a deployment from a .khop blob
//	POST   /v1/deployments/{id}/compact     renumber away departed slots; checkpoint the WAL
//	GET    /v1/deployments/{id}/metrics     one deployment's Prometheus exposition
//	GET    /v1/metrics                      Prometheus exposition (global + per-deployment series)
//	GET    /v1/healthz                      readiness: version, uptime, per-deployment counts (JSON)
//	GET    /v1/fleet                        this node's fleet view (id, ring, local deployments)
//	GET    /v1/fleet/placement/{id}         which member the ring assigns a deployment id
//	POST   /v1/fleet/membership             set the membership (migrate out, adopt ring, propagate)
//
// The pre-/v1 bare-path aliases reached their announced sunset
// (2026-01-01) and are gone; bare paths answer 404. The wire shapes
// live in the repro/api package, shared with the typed client.
//
// In fleet mode (Config.NodeID set, membership applied via
// SetMembership) every per-deployment route is wrapped by a placement
// layer: a node serves deployments it holds, transparently proxies the
// rest to the ring owner (single hop, loop-guarded by
// api.ForwardHeader), and answers 503 + Retry-After while a deployment
// is mid-hand-off. See fleet.go and docs/fleet.md.
//
// Concurrency: the deployment map takes a server-level RWMutex; each
// deployment has its own RWMutex so reads — route and broadcast queries,
// structure dumps, snapshot encodes — proceed concurrently with each
// other while churn batches (and restores) serialize behind a write
// lock. A snapshot taken under the read lock is therefore always a
// consistent (graph, result) pair, even under concurrent churn on other
// deployments. The WAL append for an acked batch happens inside the
// same write-lock section as the Apply, so the log order is the apply
// order; see durable.go for the durability contract.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	khop "repro"
	"repro/api"
	"repro/client"
	"repro/internal/codec"
	"repro/internal/fleet"
	"repro/internal/wal"
)

// maxBodyBytes bounds request bodies (event batches, snapshots). A
// 100k-node snapshot is a few MB; 64 MiB leaves generous headroom.
const maxBodyBytes = 64 << 20

// idPattern keeps deployment ids filesystem- and URL-safe, so they can
// double as snapshot filenames in the state directory.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Config configures a Server.
type Config struct {
	// Parallel is the worker count for deployment builds
	// (khop.WithParallel; 0 = all cores).
	Parallel int
	// Log receives one line per mutating request; nil discards.
	Log *log.Logger

	// StateDir roots the server's durable state: each deployment keeps a
	// base snapshot at <StateDir>/<id>.khop and a write-ahead log of
	// acked churn batches under <StateDir>/wal/<id>/. Empty disables
	// durability (in-memory only).
	StateDir string
	// WALSync is the fsync policy for WAL appends (wal.SyncAlways,
	// wal.SyncInterval, wal.SyncNever). The zero value is SyncAlways.
	WALSync wal.SyncPolicy
	// WALSyncEvery is the SyncInterval window; 0 means wal's default.
	WALSyncEvery time.Duration
	// CompactAfter auto-compacts a deployment once this many events have
	// applied since its last checkpoint (folding the WAL into a fresh v2
	// base snapshot and renumbering away departed slots). 0 disables
	// auto-compaction; POST .../compact always works.
	CompactAfter int

	// NodeID is this node's stable fleet identity (the -node-id flag).
	// Empty means standalone: no ring, no forwarding, every deployment
	// is local. A node joins a fleet by SetMembership (at boot from the
	// -peers flag, later via POST /v1/fleet/membership).
	NodeID string
	// ForwardClient carries node-to-node traffic (forwarded requests,
	// snapshot hand-offs, membership propagation); nil gets a default
	// with a timeout sized for shipping multi-MB snapshots.
	ForwardClient *http.Client
}

// Server manages named deployments. Create one with New, Load any
// persisted state, mount Handler on an http.Server, and stop accepting
// traffic with the http.Server's own graceful Shutdown; Save then
// checkpoints every deployment for the next process.
type Server struct {
	cfg Config
	tel *serverMetrics

	mu   sync.RWMutex
	deps map[string]*deployment

	// fleetMu guards the current ring, swapped whole by SetMembership
	// and read on every routed request.
	fleetMu sync.RWMutex
	ring    *fleet.Ring

	// rebalanceMu serializes membership changes: one migration wave at
	// a time, so two overlapping updates cannot hand the same
	// deployment off twice.
	rebalanceMu sync.Mutex

	// fleetHTTP carries all node-to-node traffic.
	fleetHTTP *http.Client

	peerMu      sync.Mutex
	peerClients map[string]*client.Client

	// testHandoffBarrier, when set by a test, runs between a hand-off's
	// checkpoint and its ship — the window fault-injection tests kill
	// the owner in.
	testHandoffBarrier func(id string)
}

// SetHandoffBarrierForTest installs a hook that runs between a
// hand-off's checkpoint and its ship. Fault-injection tests (in this
// package and out-of-package suites) block or die inside it to probe
// the crash window; production code must never call this.
func (s *Server) SetHandoffBarrierForTest(fn func(id string)) {
	s.testHandoffBarrier = fn
}

// New returns an empty Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		deps:        make(map[string]*deployment),
		peerClients: make(map[string]*client.Client),
		fleetHTTP:   cfg.ForwardClient,
	}
	if s.fleetHTTP == nil {
		// The default Transport keeps only 2 idle connections per host —
		// at forwarding rates that means a fresh dial for nearly every
		// proxied request, and under load a full accept queue turns those
		// dials into sporadic 502s. A node talks to a handful of peers,
		// so a deep per-host idle pool is cheap.
		s.fleetHTTP = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	s.tel = newServerMetrics(s)
	return s
}

// deployment is one named engine plus the derived application
// structures, rebuilt after every churn batch.
type deployment struct {
	id string
	// mode is recorded in emitted snapshot headers: Centralized for
	// server-built deployments, the snapshot's own mode for restored
	// ones — a restored Distributed deployment must round-trip as
	// Distributed, not be silently rewritten.
	mode khop.Mode
	met  *depMetrics

	mu     sync.RWMutex
	eng    *khop.Engine
	res    *khop.Result
	router *khop.Router
	plan   *khop.BroadcastPlan
	// appErr is the error building router/plan when the deployment has
	// no usable backbone (e.g. a fully partitioned topology); queries
	// report it instead of panicking on a nil router.
	appErr pairError
	events int

	// wal is the deployment's event log; nil when the server is not
	// durable (or the log degraded after a disk failure — see
	// durable.go).
	wal *wal.Log
	// orig is the compaction translation table (original id → current
	// id, -1 = departed); nil until the first compaction drops a slot.
	orig []int
	// sinceCheckpoint counts events applied since the last checkpoint,
	// driving Config.CompactAfter.
	sinceCheckpoint int
	// migrating fences writes during a snapshot hand-off: once the
	// outgoing checkpoint is cut, every write answers 503 with
	// Retry-After until the new owner acks (then the deployment leaves
	// this node entirely) or the hand-off fails (then the fence drops
	// and the node keeps serving).
	migrating bool
	// gen counts the completed ownership transfers in this copy's
	// lineage (0 = created or restored here, never handed off). Every
	// hand-off ships gen+1 and the receiver persists it before acking;
	// acceptHandoff refuses a generation that is not newer than the
	// live copy's, so an old owner that crashed between the receiver's
	// ack and its own drop can never overwrite state acked since the
	// transfer it missed. See fleet.go and docs/fleet.md.
	gen uint64
}

// pairError carries the independent router/plan construction errors.
type pairError struct {
	router, plan error
}

// refresh rebuilds the derived structures from the engine's current
// state. Callers hold d.mu for writing.
func (d *deployment) refresh() {
	d.res = d.eng.Result()
	cur := d.eng.CurrentGraph()
	d.router, d.appErr.router = khop.NewRouter(cur, d.res)
	d.plan, d.appErr.plan = khop.NewBroadcastPlan(cur, d.res)
}

// summaryLocked builds the Summary; callers hold d.mu (either mode).
func (d *deployment) summaryLocked() api.Summary {
	sum := api.Summary{
		ID:               d.id,
		N:                len(d.res.HeadOf),
		K:                d.res.K,
		Algorithm:        d.res.Algorithm.String(),
		Heads:            len(d.res.Heads),
		Gateways:         len(d.res.Gateways),
		CDSSize:          len(d.res.CDS),
		IndependentHeads: d.res.IndependentHeads,
		EventsApplied:    d.events,
	}
	if d.orig != nil {
		sum.OrigN = len(d.orig)
	}
	if c := d.res.Cost; c != nil {
		sum.Cost = &api.CostSummary{
			Rounds:        c.Rounds,
			Transmissions: c.Transmissions,
			Deliveries:    c.Deliveries,
		}
	}
	return sum
}

// Handler returns the server's HTTP API, every route under /v1 only
// (the bare-path aliases are past their sunset and answer 404).
// Per-deployment routes go through the fleet routing wrapper, a no-op
// until SetMembership installs a ring.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /healthz", s.handleHealthz},
		{"GET /metrics", s.handleMetrics},
		{"POST /deployments", s.routedCreate(s.handleCreate)},
		{"GET /deployments", s.handleList},
		{"GET /deployments/{id}", s.routed(s.withDep(s.handleSummary))},
		{"DELETE /deployments/{id}", s.routed(s.handleDelete)},
		{"POST /deployments/{id}/events", s.routed(s.withDep(s.handleEvents))},
		{"GET /deployments/{id}/route", s.routed(s.withDep(instrument(func(m *depMetrics) *opMetrics { return &m.route }, s.handleRoute)))},
		{"GET /deployments/{id}/broadcast", s.routed(s.withDep(instrument(func(m *depMetrics) *opMetrics { return &m.broadcast }, s.handleBroadcast)))},
		{"GET /deployments/{id}/cds", s.routed(s.withDep(instrument(func(m *depMetrics) *opMetrics { return &m.cds }, s.handleCDS)))},
		{"GET /deployments/{id}/snapshot", s.routed(s.withDep(instrument(func(m *depMetrics) *opMetrics { return &m.snapshot }, s.handleSnapshotGet)))},
		{"POST /deployments/{id}/snapshot", s.routed(s.handleSnapshotPost)},
		{"POST /deployments/{id}/compact", s.routed(s.withDep(instrument(func(m *depMetrics) *opMetrics { return &m.compact }, s.handleCompact)))},
		{"GET /deployments/{id}/metrics", s.routed(s.withDep(s.handleDepMetrics))},
		{"GET /fleet", s.handleFleet},
		{"GET /fleet/placement/{id}", s.handleFleetPlacement},
		{"POST /fleet/membership", s.handleFleetMembership},
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		mux.HandleFunc(method+" /v1"+path, rt.h)
	}
	return s.withHTTPMetrics(mux)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deps))
	for _, d := range s.deps {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].id < deps[j].id })
	h := api.Health{
		Status:        "ok",
		Version:       Version,
		UptimeSeconds: time.Since(s.tel.start).Seconds(),
		Deployments:   len(deps),
		Stats:         make(map[string]api.HealthDeployment, len(deps)),
	}
	for _, d := range deps {
		d.mu.RLock()
		h.Stats[d.id] = api.HealthDeployment{
			Nodes:         len(d.res.HeadOf),
			Heads:         len(d.res.Heads),
			EventsApplied: d.events,
		}
		d.mu.RUnlock()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// withDep resolves {id} and hands the deployment to h, or 404s.
func (s *Server) withDep(h func(http.ResponseWriter, *http.Request, *deployment)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.RLock()
		d, ok := s.deps[id]
		s.mu.RUnlock()
		if !ok {
			writeError(w, http.StatusNotFound, "no deployment %q", id)
			return
		}
		h(w, r, d)
	}
}

// register inserts d into the deployment map, failing on a duplicate id.
func (s *Server) register(d *deployment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.deps[d.id]; exists {
		return fmt.Errorf("%w: %q", errExists, d.id)
	}
	s.deps[d.id] = d
	return nil
}

func (s *Server) unregister(id string) {
	s.mu.Lock()
	delete(s.deps, id)
	s.mu.Unlock()
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !idPattern.MatchString(req.ID) {
		writeError(w, http.StatusBadRequest, "deployment id must match %s", idPattern)
		return
	}
	if req.N <= 0 {
		writeError(w, http.StatusBadRequest, "n must be positive")
		return
	}
	algo := khop.ACLMST
	if req.Algorithm != "" {
		var err error
		if algo, err = khop.AlgorithmByName(req.Algorithm); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	k := req.K
	if k == 0 {
		k = 1
	}
	// Cheap duplicate check before paying for the build; register below
	// re-checks under the map lock for the create/create race.
	s.mu.RLock()
	_, exists := s.deps[req.ID]
	s.mu.RUnlock()
	if exists {
		writeError(w, http.StatusConflict, "deployment %q already exists", req.ID)
		return
	}

	var g *khop.Graph
	if req.Edges != nil {
		g = khop.NewGraph(req.N)
		for _, e := range req.Edges {
			if e[0] < 0 || e[0] >= req.N || e[1] < 0 || e[1] >= req.N || e[0] == e[1] {
				writeError(w, http.StatusBadRequest, "edge (%d,%d) invalid for n=%d", e[0], e[1], req.N)
				return
			}
			g.AddEdge(e[0], e[1])
		}
	} else {
		net, err := khop.RandomNetwork(khop.NetworkConfig{
			N: req.N, AvgDegree: req.AvgDegree, Seed: req.Seed,
			AllowDisconnected: req.AllowDisconnected,
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		g = net.Graph()
	}

	eng, err := khop.NewEngine(g,
		khop.WithK(k), khop.WithAlgorithm(algo), khop.WithParallel(s.cfg.Parallel))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	buildStart := time.Now()
	if _, err := eng.Build(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, "build: %v", err)
		return
	}
	buildDur := time.Since(buildStart)
	d := &deployment{id: req.ID, mode: khop.Centralized, met: newDepMetrics(), eng: eng}
	d.refresh()

	// Encode the base snapshot before d is shared: no lock is held, so
	// the encode cost never serializes readers.
	var raw []byte
	if s.durable() {
		if raw, err = d.snapshotLocked(); err != nil {
			writeError(w, http.StatusInternalServerError, "encoding base snapshot: %v", err)
			return
		}
	}
	// The write lock is held across registration and the durable setup:
	// the deployment must not ack (or serve churn that assumes a WAL)
	// before its base snapshot and log exist.
	d.mu.Lock()
	if err := s.register(d); err != nil {
		d.mu.Unlock()
		writeError(w, http.StatusConflict, "deployment %q already exists", req.ID)
		return
	}
	if s.durable() {
		if err := s.makeDurableLocked(d, raw); err != nil {
			s.unregister(req.ID)
			d.mu.Unlock()
			writeError(w, http.StatusInternalServerError, "persisting deployment: %v", err)
			return
		}
	}
	sum := d.summaryLocked()
	d.mu.Unlock()

	s.tel.builds.Observe(buildDur)
	d.met.lastBuild.Set(buildDur.Microseconds())
	s.logf("created deployment %q: n=%d k=%d algo=%v", req.ID, req.N, k, algo)
	d.met.observeStructure(sum)
	writeJSON(w, http.StatusCreated, sum)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deps))
	for _, d := range s.deps {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].id < deps[j].id })
	out := make([]api.Summary, len(deps))
	for i, d := range deps {
		d.mu.RLock()
		out[i] = d.summaryLocked()
		d.mu.RUnlock()
	}
	writeJSON(w, http.StatusOK, api.ListResponse{Deployments: out})
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request, d *deployment) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	writeJSON(w, http.StatusOK, d.summaryLocked())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	d, ok := s.deps[id]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no deployment %q", id)
		return
	}
	d.mu.Lock()
	if d.migrating {
		d.mu.Unlock()
		writeUnavailable(w, "deployment %q is migrating to its new owner; retry", id)
		return
	}
	// Raise the fence before releasing the lock so a concurrent
	// migration wave cannot pick the deployment up between this check
	// and the map removal.
	d.migrating = true
	d.mu.Unlock()
	s.dropLocal(id)
	s.logf("deleted deployment %q", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, d *deployment) {
	var req api.EventsRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, "empty event batch")
		return
	}
	wire := make([]codec.Event, len(req.Events))
	batch := make([]khop.Event, len(req.Events))
	for i, ev := range req.Events {
		kind, kerr := codec.ParseEventKind(strings.ToLower(ev.Kind))
		if kerr != nil {
			writeError(w, http.StatusBadRequest, "event %d: unknown kind %q (want leave, join, or move)", i, ev.Kind)
			return
		}
		wire[i] = codec.Event{Kind: kind, Node: ev.Node, Neighbors: ev.Neighbors}
		var cerr error
		if batch[i], cerr = wire[i].Khop(); cerr != nil {
			writeError(w, http.StatusBadRequest, "event %d: %v", i, cerr)
			return
		}
	}
	// The WAL payload is the canonical batch encoding; built outside the
	// lock so the critical section pays only for the append itself.
	var payload []byte
	if s.durable() {
		payload = codec.AppendEvents(nil, wire)
	}

	var walStats wal.AppendStats
	var walErr, autoErr error
	var appended, resynced, degraded bool
	autoDropped := 0

	d.mu.Lock()
	if d.migrating {
		d.mu.Unlock()
		writeUnavailable(w, "deployment %q is migrating to its new owner; retry", d.id)
		return
	}
	applyStart := time.Now()
	reports, err := d.eng.Apply(r.Context(), batch...)
	applyDur := time.Since(applyStart)
	d.events += len(reports)
	// Refresh even on a mid-batch error: the engine's Result already
	// reflects the repairs that did apply.
	if len(reports) > 0 {
		d.refresh()
	}
	switch {
	case err == nil && len(reports) > 0:
		if d.wal != nil {
			// Durable before acked: the batch is logged inside the same
			// write-lock section that applied it, so the WAL order is the
			// apply order.
			walStats, walErr = d.wal.Append(payload)
			appended = walErr == nil
			if walErr != nil {
				// The log no longer matches reality (this batch applied but
				// is not in it); a checkpoint re-bases durability on a fresh
				// snapshot. If that fails too, degrade to in-memory — a
				// wrong replay is strictly worse than no replay.
				//lint:ignore khoplint/lockscope the recovery checkpoint must snapshot the exact state the failed append left behind, atomically with the WAL truncation
				if cerr := s.checkpointLocked(d); cerr == nil {
					resynced = true
				} else if d.wal != nil {
					d.wal.Close()
					d.wal = nil
					degraded = true
				}
			}
		}
		d.sinceCheckpoint += len(reports)
		if s.cfg.CompactAfter > 0 && d.sinceCheckpoint >= s.cfg.CompactAfter && !degraded {
			//lint:ignore khoplint/lockscope the auto-compaction checkpoint must persist and truncate atomically with the renumbering it publishes; a batch in between would replay in the wrong id space
			autoDropped, autoErr = s.compactLocked(d)
		}
	case err != nil && len(reports) > 0 && d.wal != nil:
		// Partial application: replaying a prefix as its own batch is not
		// guaranteed to reproduce the post-error state (gateway
		// reconciliation is batch-scoped), so instead of logging a prefix,
		// checkpoint — persist the exact partial state and truncate.
		//lint:ignore khoplint/lockscope the partial-batch checkpoint must persist the exact mid-batch state atomically with the WAL truncation
		if cerr := s.checkpointLocked(d); cerr != nil {
			if d.wal != nil {
				d.wal.Close()
				d.wal = nil
			}
			degraded = true
		}
	}
	out := make([]api.ReportResponse, len(reports))
	for i, rep := range reports {
		out[i] = api.ReportResponse{
			Kind:              rep.Kind.String(),
			Node:              rep.Node,
			Role:              rep.Role.String(),
			ReclusteredNodes:  rep.ReclusteredNodes,
			ReselectedHeads:   rep.ReselectedHeads,
			NewHeads:          rep.NewHeads,
			GatewayDirty:      rep.GatewayDirty,
			BatchGatewayRuns:  rep.BatchGatewayRuns,
			BatchGatewaySaved: rep.BatchGatewaySaved,
		}
	}
	sum := d.summaryLocked()
	d.mu.Unlock()

	// Recorded strictly after the write lock is released: the churn
	// critical section pays nothing for instrumentation.
	m := d.met
	m.eventBatches.Inc()
	m.applySecs.Observe(applyDur)
	m.eventsApplied.Add(uint64(len(reports)))
	if err != nil {
		m.eventErrors.Inc()
	}
	if appended {
		m.walAppends.Inc()
		m.walBytes.Add(uint64(walStats.Bytes))
		if walStats.Synced {
			m.walFsyncSecs.Observe(walStats.SyncDuration)
		}
	}
	if autoErr == nil && autoDropped > 0 {
		m.compactions.Inc()
		m.compactedNodes.Add(uint64(autoDropped))
	}
	if n := len(reports); n > 0 {
		// Every report carries the same batch-level coalescing totals.
		m.gatewayRuns.Add(uint64(reports[n-1].BatchGatewayRuns))
		m.gatewaySaved.Add(uint64(reports[n-1].BatchGatewaySaved))
		m.observeStructure(sum)
	}
	if degraded {
		s.logf("deployment %q: WAL degraded, continuing in-memory only (append: %v)", d.id, walErr)
	}
	if autoErr != nil {
		s.logf("deployment %q: auto-compaction failed: %v", d.id, autoErr)
	}

	if err != nil {
		// Partial application is real state: report what applied
		// alongside the error so the client can reconcile.
		writeJSON(w, http.StatusUnprocessableEntity, api.EventsResponse{
			Error:   err.Error(),
			Applied: len(reports),
			Reports: out,
			Summary: sum,
		})
		return
	}
	if walErr != nil && !resynced {
		// Applied but not durable, and the checkpoint fallback failed
		// too: acked-implies-durable cannot hold, so do not ack.
		writeError(w, http.StatusInternalServerError, "batch applied but could not be made durable: %v", walErr)
		return
	}
	s.logf("deployment %q: applied %d events", d.id, len(reports))
	writeJSON(w, http.StatusOK, api.EventsResponse{Applied: len(reports), Reports: out, Summary: sum})
}

// handleCompact renumbers away the departed slots and checkpoints; see
// codec.Compact for the isomorphism and api.CompactResponse for the id
// translation contract.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request, d *deployment) {
	d.mu.Lock()
	if d.migrating {
		d.mu.Unlock()
		writeUnavailable(w, "deployment %q is migrating to its new owner; retry", d.id)
		return
	}
	//lint:ignore khoplint/lockscope the compaction checkpoint must persist and truncate atomically with the renumbering it publishes; a batch in between would replay in the wrong id space
	dropped, err := s.compactLocked(d)
	if err != nil {
		d.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	sum := d.summaryLocked()
	alive := len(d.res.HeadOf)
	table := append([]int(nil), d.orig...)
	d.mu.Unlock()

	if table == nil {
		// Never compacted and nothing dropped: the mapping is identity.
		table = make([]int, alive)
		for i := range table {
			table[i] = i
		}
	}
	d.met.compactions.Inc()
	d.met.compactedNodes.Add(uint64(dropped))
	s.logf("deployment %q: compacted %d departed slots (%d alive)", d.id, dropped, alive)
	writeJSON(w, http.StatusOK, api.CompactResponse{
		Summary: sum,
		OrigN:   len(table),
		Alive:   alive,
		Dropped: dropped,
		Table:   table,
	})
}

func queryInt(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %w", name, err)
	}
	return v, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request, d *deployment) {
	src, err := queryInt(r, "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dst, err := queryInt(r, "dst")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.appErr.router != nil {
		writeError(w, http.StatusConflict, "deployment has no routable backbone: %v", d.appErr.router)
		return
	}
	if n := len(d.res.HeadOf); src < 0 || src >= n || dst < 0 || dst >= n {
		writeError(w, http.StatusBadRequest, "src/dst must be in [0,%d)", len(d.res.HeadOf))
		return
	}
	route, err := d.router.Route(src, dst)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.RouteResponse{
		Src: src, Dst: dst, Route: route, Hops: len(route) - 1,
	})
}

func (s *Server) handleBroadcast(w http.ResponseWriter, r *http.Request, d *deployment) {
	src, err := queryInt(r, "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.appErr.plan != nil {
		writeError(w, http.StatusConflict, "deployment has no broadcast plan: %v", d.appErr.plan)
		return
	}
	if src < 0 || src >= len(d.res.HeadOf) {
		writeError(w, http.StatusBadRequest, "src %d out of range [0,%d)", src, len(d.res.HeadOf))
		return
	}
	stats := d.plan.Broadcast(src)
	writeJSON(w, http.StatusOK, api.BroadcastResponse{
		Src:           src,
		Forwarders:    d.plan.ForwarderCount(),
		Transmissions: stats.Transmissions,
		Reached:       stats.Reached,
		Covered:       stats.Covered,
		Rounds:        stats.Rounds,
	})
}

func (s *Server) handleCDS(w http.ResponseWriter, _ *http.Request, d *deployment) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	writeJSON(w, http.StatusOK, api.CDSResponse{
		K:                d.res.K,
		Algorithm:        d.res.Algorithm.String(),
		Heads:            d.res.Heads,
		Gateways:         d.res.Gateways,
		CDS:              d.res.CDS,
		IndependentHeads: d.res.IndependentHeads,
	})
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request, d *deployment) {
	encStart := time.Now()
	d.mu.RLock()
	raw, err := d.snapshotLocked()
	d.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	d.met.encodeSecs.Observe(time.Since(encStart))
	d.met.encodeBytes.Add(uint64(len(raw)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", d.id+".khop"))
	w.Write(raw)
}

// snapshotLocked encodes the deployment; callers hold d.mu (read mode
// suffices — churn serializes behind the write lock, so the
// graph/result pair is consistent). The compaction translation table
// rides along, so a compacted deployment emits a v2 blob.
func (d *deployment) snapshotLocked() ([]byte, error) {
	snap, err := codec.FromEngine(d.eng, d.mode)
	if err != nil {
		return nil, err
	}
	snap.Orig = d.orig
	var buf bytes.Buffer
	if err := codec.Encode(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	if !idPattern.MatchString(id) {
		writeError(w, http.StatusBadRequest, "deployment id must match %s", idPattern)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading snapshot body: %v", err)
		return
	}
	if hv := r.Header.Get(api.HandoffHeader); hv != "" {
		// Hand-offs bypass the 409-on-exists guard below, so they are
		// gated harder: only a fleet-configured node accepts them, and the
		// generation header decides whether an existing copy may be
		// replaced — never the header's mere presence.
		if s.cfg.NodeID == "" {
			writeError(w, http.StatusForbidden, "standalone khopd (no -node-id) does not accept fleet hand-offs")
			return
		}
		gen, gerr := strconv.ParseUint(r.Header.Get(api.HandoffGenHeader), 10, 64)
		if gerr != nil {
			writeError(w, http.StatusBadRequest, "hand-off without a valid %s header: %v", api.HandoffGenHeader, gerr)
			return
		}
		s.acceptHandoff(w, id, raw, hv, gen)
		return
	}
	d, err := s.restore(id, raw)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errExists):
			status = http.StatusConflict
			// The op metrics live on the deployment, so a failed restore
			// is only attributable when the id already resolves; other
			// failures show up in the HTTP class counters.
			s.mu.RLock()
			prev := s.deps[id]
			s.mu.RUnlock()
			if prev != nil {
				prev.met.restore.requests.Inc()
				prev.met.restore.errors.Inc()
				prev.met.restore.seconds.Observe(time.Since(start))
			}
		case errors.Is(err, errDurability):
			status = http.StatusInternalServerError
		}
		writeError(w, status, "%v", err)
		return
	}
	s.logf("restored deployment %q from snapshot (%d bytes)", id, len(raw))
	d.mu.RLock()
	sum := d.summaryLocked()
	d.mu.RUnlock()
	d.met.restore.requests.Inc()
	d.met.restore.seconds.Observe(time.Since(start))
	writeJSON(w, http.StatusCreated, sum)
}

var (
	errExists     = errors.New("deployment already exists")
	errDurability = errors.New("persisting deployment state")
)

// buildRestored decodes and verifies a snapshot (codec.Decode runs
// khop.VerifyResult) and constructs an unregistered deployment from it.
func (s *Server) buildRestored(id string, raw []byte) (*deployment, error) {
	decStart := time.Now()
	snap, err := codec.DecodeBytes(raw)
	if err != nil {
		return nil, err
	}
	s.tel.decodeSecs.Observe(time.Since(decStart))
	s.tel.decodeBytes.Add(uint64(len(raw)))
	eng, err := snap.Restore(khop.WithParallel(s.cfg.Parallel))
	if err != nil {
		return nil, err
	}
	d := &deployment{id: id, mode: snap.Mode, met: newDepMetrics(), eng: eng, orig: snap.Orig}
	d.met.lastBuild.Set(-1) // restored, not built here
	d.refresh()
	return d, nil
}

// restore builds a deployment from snapshot bytes and registers it,
// persisting the (already canonical) bytes as its durable base.
func (s *Server) restore(id string, raw []byte) (*deployment, error) {
	d, err := s.buildRestored(id, raw)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if err := s.register(d); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	if s.durable() {
		if err := s.makeDurableLocked(d, raw); err != nil {
			s.unregister(id)
			d.mu.Unlock()
			return nil, fmt.Errorf("%w: %w", errDurability, err)
		}
	}
	sum := d.summaryLocked()
	d.mu.Unlock()
	s.tel.restores.Inc()
	d.met.observeStructure(sum)
	return d, nil
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// One JSON value per body; trailing content is a client bug.
	if dec.More() {
		return fmt.Errorf("trailing content after the JSON body")
	}
	return nil
}
