package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"time"

	khop "repro"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/ncr"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed call into a layer. Start and end are nanoseconds
// since the tracer's origin; parent is the index of the enclosing span
// (-1 for none) and op the scheduled op it served (-1 for set-up work).
type span struct {
	name       string
	start, end int64
	parent, op int
}

// tracer records spans in memory; it is written out only when the run
// ends. A disabled tracer times nothing, which is how the build loop's
// tracing overhead is measured.
type tracer struct {
	origin time.Time
	spans  []span
	off    bool
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 when off).
func (t *tracer) begin(name string, parent, op int) int {
	if t.off {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.origin))
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	i := t.begin(name, parent, op)
	fn()
	t.end(i)
}

// durations returns the lengths (ns) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// spanMetrics sets every per-layer time metric that has recorded spans
// and no value yet to the median span length in the metric's unit.
func (t *tracer) spanMetrics(m map[string]float64) {
	for _, spec := range perLayer {
		span, perNS, ok := spanName(spec)
		if _, set := m[spec.name]; set || !ok {
			continue
		}
		if d := t.durations(span); len(d) > 0 {
			m[spec.name] = median(d) * perNS
		}
	}
}

// internalGraph rebuilds g as the build packages' own graph type, which
// the layer functions below take.
func internalGraph(g *khop.Graph) *graph.Graph {
	ig := graph.New(g.N())
	for _, e := range g.Edges() {
		ig.AddEdge(e[0], e[1])
	}
	return ig
}

// phases runs the build pipeline one layer call at a time — CSR
// snapshot, election, neighbour selection, gateway selection, the order
// the engine runs them — plus the batched-traversal primitives on the
// same input, and checks the outcome against want.
func phases(ctx context.Context, t *tracer, ig *graph.Graph, want *khop.Result, m map[string]float64) error {
	var (
		fg   *graph.FlatGraph
		c    *cluster.Clustering
		sel  *ncr.Selection
		gres *gateway.Result
		err  error
	)
	cs := cluster.NewScratch()
	t.do("graph.flatten", -1, -1, func() { fg = graph.Flatten(ig) })
	t.do("cluster.election", -1, -1, func() {
		c, err = cluster.RunCtx(ctx, ig, cluster.Options{K: clusterK, Flat: fg}, cs)
	})
	if err != nil {
		return fmt.Errorf("election: %w", err)
	}
	t.do("ncr.select", -1, -1, func() { sel, err = ncr.SelectPar(ctx, ig, fg, c, ncr.RuleANCR, cs.BFS, nil) })
	if err != nil {
		return fmt.Errorf("neighbour selection: %w", err)
	}
	t.do("gateway.select", -1, -1, func() {
		gres, err = gateway.RunSelectedPar(ctx, ig, fg, c, sel, gateway.ACLMST, cs.BFS, nil)
	})
	if err != nil {
		return fmt.Errorf("gateway selection: %w", err)
	}
	if !slices.Equal(c.Heads, want.Heads) || !slices.Equal(gres.CDS, want.CDS) {
		return fmt.Errorf("layer-by-layer build disagrees with Engine.Build (%d/%d heads, %d/%d CDS)",
			len(c.Heads), len(want.Heads), len(gres.CDS), len(want.CDS))
	}
	m["cluster.heads"] = float64(len(c.Heads))
	m["ncr.pairs"] = float64(sel.NumPairs())
	m["gateway.links"] = float64(len(gres.Links))
	m["gateway.cds_size"] = float64(len(gres.CDS))

	var order []int
	t.do("graph.locality_order", -1, -1, func() { order = fg.LocalityOrder(c.Heads) })
	srcs := make([]int, 0, 64)
	for _, i := range order[:min(64, len(order))] {
		srcs = append(srcs, c.Heads[i])
	}
	ms := graph.NewMSScratch()
	t.do("graph.msbfs64", -1, -1, func() {
		fg.MSBFS(ms, srcs, -1, func(int, int, uint64) bool { return true })
	})
	return nil
}

// buildTraceReps is how many times a traced replay builds; medians of a
// handful of builds are steady.
const buildTraceReps = 6

// buildLayers builds buildTraceReps times, alternating Engine.Build with
// the pipeline run layer by layer, sets engine.build_self_ms and returns
// the last Build's Result.
func buildLayers(ctx context.Context, t *tracer, eng *khop.Engine, ig *graph.Graph, m map[string]float64) (*khop.Result, error) {
	var res *khop.Result
	var err error
	for i := 0; i < buildTraceReps; i++ {
		t.do("engine.build", -1, -1, func() { res, err = eng.Build(ctx) })
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		if err := phases(ctx, t, ig, res, m); err != nil {
			return nil, err
		}
	}
	m["engine.build_self_ms"] = buildSelfMS(t)
	return res, nil
}

// traceBuild replays build_50k in-process: the pipeline layer by layer,
// Engine.Build, VerifyResult, and the build loop with span recording off
// and on for the tracing overhead.
func traceBuild(ctx context.Context, t *tracer, in *inputs, m map[string]float64) error {
	eng, err := newEngine(in.graph)
	if err != nil {
		return err
	}
	res, err := buildLayers(ctx, t, eng, internalGraph(in.graph), m)
	if err != nil {
		return err
	}
	t.do("engine.verify", -1, -1, func() { err = khop.VerifyResult(in.graph, res) })
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}

	// Alternate untraced and traced builds so drift hits both sides.
	var plain, traced []float64
	defer func() { t.off = false }()
	for i := 0; i < buildTraceReps; i++ {
		for _, off := range []bool{true, false} {
			t.off = off
			start := time.Now()
			t.do("engine.build", -1, -1, func() { _, err = eng.Build(ctx) })
			d := float64(time.Since(start))
			if err != nil {
				return fmt.Errorf("build: %w", err)
			}
			if off {
				plain = append(plain, d)
			} else {
				traced = append(traced, d)
			}
		}
	}
	m["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	return nil
}

// buildSelfMS is Engine.Build's self time: its median span less the
// medians of the four phase spans it consists of, i.e. the assembly of
// the Result.
func buildSelfMS(t *tracer) float64 {
	self := median(t.durations("engine.build"))
	for _, p := range []string{"graph.flatten", "cluster.election", "ncr.select", "gateway.select"} {
		self -= median(t.durations(p))
	}
	return self * 1e-6
}

// bfsTraceOps bounds how many routes the serving replay also times a
// whole-graph BFS for.
const bfsTraceOps = 200

// replay is the state of one serving workload's in-process replay.
type replay struct {
	ctx    context.Context
	t      *tracer
	in     *inputs
	ig     *graph.Graph
	eng    *khop.Engine
	h      http.Handler
	log    *wal.Log
	router *khop.Router
	plan   *khop.BroadcastPlan

	hops, forwarders, fsyncs        []float64
	gwRuns, gwSaved, appends, syncs float64
	bfs                             int
}

// traceServing replays a serving workload's exact op sequence serially
// and in-process: each op through the layer functions a khopd deployment
// calls (router, plan, Engine.Apply, codec, WAL), and again through the
// server's HTTP handler with no socket.
func traceServing(ctx context.Context, t *tracer, in *inputs, work string, m map[string]float64) error {
	eng, err := newEngine(in.graph)
	if err != nil {
		return err
	}
	r := &replay{ctx: ctx, t: t, in: in, ig: internalGraph(in.graph), eng: eng}
	if _, err := buildLayers(ctx, t, eng, r.ig, m); err != nil {
		return err
	}

	scfg := server.Config{}
	walDir := filepath.Join(work, "replay-wal")
	if in.w.durable {
		scfg.StateDir, scfg.WALSync = filepath.Join(work, "replay-state"), wal.SyncInterval
		if r.log, _, err = wal.Open(walDir, wal.Options{Sync: wal.SyncInterval}); err != nil {
			return err
		}
		defer func() { r.log.Close() }()
	}
	r.h = server.New(scfg).Handler()
	create, err := json.Marshal(createRequest(in))
	if err != nil {
		return err
	}
	if err := r.serve("server.create", -1, -1, http.MethodPost, "/v1/deployments", create, http.StatusCreated); err != nil {
		return err
	}
	if err := r.refresh(-1, -1); err != nil {
		return err
	}
	if err := traceCodec(t, eng, m); err != nil {
		return err
	}

	ri, bi := 0, 0
	for id := 0; ri < len(in.reads) || bi < len(in.batches); id++ {
		if bi == len(in.batches) || (ri < len(in.reads) && in.reads[ri].due <= in.batches[bi].due) {
			err = r.read(id, in.reads[ri])
			ri++
		} else {
			err = r.churn(id, in.batches[bi])
			bi++
		}
		if err != nil {
			return err
		}
	}

	m["routing.route_hops"] = median(r.hops)
	m["broadcast.forwarders"] = median(r.forwarders)
	m["engine.gateway_runs"] = r.gwRuns
	m["engine.gateway_saved"] = r.gwSaved
	if err := traceCodec(t, eng, m); err != nil {
		return err
	}
	if r.log == nil {
		return nil
	}
	m["wal.syncs_per_append"] = r.syncs / r.appends
	m["wal.fsync_ms"] = median(r.fsyncs) * 1e-6
	if err := r.log.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	var rec *wal.Recovery
	t.do("wal.open", -1, -1, func() { r.log, rec, err = wal.Open(walDir, wal.Options{Sync: wal.SyncInterval}) })
	if err != nil {
		return fmt.Errorf("wal reopen: %w", err)
	}
	if len(rec.Records) != len(in.batches) {
		return fmt.Errorf("wal reopen recovered %d of %d records", len(rec.Records), len(in.batches))
	}
	return nil
}

// serve sends one request through the server's handler, no socket.
func (r *replay) serve(name string, parent, op int, method, path string, body []byte, want int) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	r.t.do(name, parent, op, func() { r.h.ServeHTTP(rec, req) })
	if rec.Code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// refresh rebuilds the read structures the way khopd does after a batch.
func (r *replay) refresh(parent, op int) error {
	var cur *khop.Graph
	var rerr, perr error
	r.t.do("engine.current_graph", parent, op, func() { cur = r.eng.CurrentGraph() })
	res := r.eng.Result()
	r.t.do("routing.new_router", parent, op, func() { r.router, rerr = khop.NewRouter(cur, res) })
	r.t.do("broadcast.new_plan", parent, op, func() { r.plan, perr = khop.NewBroadcastPlan(cur, res) })
	if err := errors.Join(rerr, perr); err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	r.forwarders = append(r.forwarders, float64(r.plan.ForwarderCount()))
	return nil
}

// read replays one route or broadcast.
func (r *replay) read(id int, o op) error {
	t := r.t
	parent := t.begin("op."+o.kind.String(), -1, id)
	defer t.end(parent)
	if o.kind == opBroadcast {
		var st khop.BroadcastStats
		t.do("broadcast.run", parent, id, func() { st = r.plan.Broadcast(o.src) })
		if err := checkBroadcast(r.in, o.src, st.Reached); err != nil {
			return err
		}
		return r.serve("server.broadcast_handler", parent, id, http.MethodGet,
			fmt.Sprintf("%s/broadcast?src=%d", depPath, o.src), nil, http.StatusOK)
	}
	var route []int
	var err error
	t.do("routing.route", parent, id, func() { route, err = r.router.Route(o.src, o.dst) })
	if err != nil {
		return fmt.Errorf("route %d→%d: %w", o.src, o.dst, err)
	}
	if err := checkRoute(r.in, o.src, o.dst, route, len(route)-1); err != nil {
		return err
	}
	r.hops = append(r.hops, float64(len(route)-1))
	if r.bfs < bfsTraceOps {
		r.bfs++
		t.do("graph.bfs", parent, id, func() { r.ig.BFS(o.src) })
	}
	return r.serve("server.route_handler", parent, id, http.MethodGet,
		fmt.Sprintf("%s/route?src=%d&dst=%d", depPath, o.src, o.dst), nil, http.StatusOK)
}

// churn replays one batch: encode, log, apply and refresh as khopd does.
func (r *replay) churn(id int, o op) error {
	t := r.t
	parent := t.begin("op.churn", -1, id)
	defer t.end(parent)
	var payload []byte
	t.do("codec.events_encode", parent, id, func() { payload = codec.AppendEvents(nil, o.events) })
	if r.log != nil {
		var st wal.AppendStats
		var err error
		t.do("wal.append", parent, id, func() { st, err = r.log.Append(payload) })
		if err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		r.appends++
		if st.Synced {
			r.syncs++
			r.fsyncs = append(r.fsyncs, float64(st.SyncDuration))
		}
	}
	var reports []khop.RepairReport
	var err error
	t.do("engine.apply", parent, id, func() { reports, err = r.eng.Apply(r.ctx, khopEvents(o.events)...) })
	if err != nil {
		return fmt.Errorf("apply op %d: %w", id, err)
	}
	if len(reports) != len(o.events) {
		return fmt.Errorf("apply op %d: %d reports for %d events", id, len(reports), len(o.events))
	}
	last := reports[len(reports)-1]
	r.gwRuns += float64(last.BatchGatewayRuns)
	r.gwSaved += float64(last.BatchGatewaySaved)
	if err := r.refresh(parent, id); err != nil {
		return err
	}
	return r.serve("server.events_handler", parent, id, http.MethodPost, depPath+"/events", eventsBody(o.events), http.StatusOK)
}

// traceCodec encodes the engine's state as a snapshot and decodes it
// back, the work khopd does to persist and to restore a deployment.
func traceCodec(t *tracer, eng *khop.Engine, m map[string]float64) error {
	var raw []byte
	var err error
	t.do("codec.encode", -1, -1, func() { raw, err = encodeSnapshot(eng) })
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	t.do("codec.decode", -1, -1, func() { _, err = codec.DecodeBytes(raw) })
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	m["codec.snapshot_bytes"] = float64(len(raw))
	return nil
}
