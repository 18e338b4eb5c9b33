// Metrics wiring for the deployment server: a global telemetry.Set for
// process-wide series, one Set per deployment exposed under a
// deployment label, and the /metrics handlers.
//
// The locking contract: nothing in this file is recorded while holding
// a deployment's mutex. Handlers capture durations and counts into
// locals inside the critical section and feed the atomics only after
// the lock is released, so instrumentation never extends write-lock
// hold times on the churn path (and scrapes never block queries — a
// scrape reads atomics, taking only the registration mutexes and the
// server map's read lock).
package server

import (
	"net/http"
	"time"

	"repro/api"
	"repro/internal/telemetry"
)

// Version identifies the khopd build in /healthz; bumped alongside the
// API surface.
const Version = "0.8.0"

// serverMetrics is the process-global side of the exposition.
type serverMetrics struct {
	set   *telemetry.Set
	start time.Time

	builds      *telemetry.Histogram
	restores    *telemetry.Counter
	decodeSecs  *telemetry.Histogram
	decodeBytes *telemetry.Counter
	httpByClass [6]*telemetry.Counter // index = status/100 (1xx..5xx; 0 unused)

	replaySecs    *telemetry.Histogram
	replayRecords *telemetry.Counter
	replayEvents  *telemetry.Counter

	forwarded     *telemetry.Counter
	forwardErrors *telemetry.Counter
	forwardSecs   *telemetry.Histogram

	migrations      *telemetry.Counter
	migrationErrors *telemetry.Counter
	migrationSecs   *telemetry.Histogram
	handoffs        *telemetry.Counter
}

func newServerMetrics(s *Server) *serverMetrics {
	set := telemetry.NewSet()
	m := &serverMetrics{
		set:         set,
		start:       time.Now(),
		builds:      set.Histogram("khopd_build_seconds", "Deployment build duration (POST /deployments)."),
		restores:    set.Counter("khopd_restores_total", "Deployments restored from snapshots (POST snapshot + LoadDir)."),
		decodeSecs:  set.Histogram("khopd_snapshot_decode_seconds", "Snapshot decode+verify duration on restore."),
		decodeBytes: set.Counter("khopd_snapshot_decode_bytes_total", "Snapshot bytes decoded on restore."),

		replaySecs:    set.Histogram("khopd_wal_replay_seconds", "WAL replay duration per deployment at startup."),
		replayRecords: set.Counter("khopd_wal_replay_records_total", "WAL records (acked batches) replayed at startup."),
		replayEvents:  set.Counter("khopd_wal_replay_events_total", "Churn events replayed from WALs at startup."),

		forwarded:     set.Counter("khopd_forwarded_requests_total", "Requests proxied to the owning node (fleet forwarding)."),
		forwardErrors: set.Counter("khopd_forward_errors_total", "Forwarded requests that failed at the transport (owner unreachable)."),
		forwardSecs:   set.Histogram("khopd_forward_seconds", "End-to-end latency of forwarded requests."),

		migrations:      set.Counter("khopd_migrations_total", "Deployments handed off to a new owner on membership change."),
		migrationErrors: set.Counter("khopd_migration_errors_total", "Hand-off attempts that failed (deployment stayed local)."),
		migrationSecs:   set.Histogram("khopd_migration_seconds", "Snapshot hand-off duration, checkpoint to new-owner ack."),
		handoffs:        set.Counter("khopd_handoffs_received_total", "Hand-off snapshots accepted from previous owners."),
	}
	for c := 1; c <= 5; c++ {
		m.httpByClass[c] = set.Counter(
			"khopd_http_"+string(rune('0'+c))+"xx_total",
			"HTTP responses with a "+string(rune('0'+c))+"xx status.")
	}
	set.GaugeFunc("khopd_uptime_seconds", "Seconds since server start.", func() float64 {
		return time.Since(m.start).Seconds()
	})
	set.GaugeFunc("khopd_deployments", "Deployments currently served.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.deps))
	})
	set.GaugeFunc("khopd_ring_version", "Low 32 bits of the consistent-hash ring version (0 when standalone).", func() float64 {
		if r := s.currentRing(); r != nil {
			return float64(uint32(r.Version()))
		}
		return 0
	})
	return m
}

// opMetrics instruments one query class on one deployment.
type opMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	seconds  *telemetry.Histogram
}

// depMetrics is the per-deployment side; every deployment's Set has
// the same schema, so /metrics groups them under a deployment label.
type depMetrics struct {
	set *telemetry.Set

	route, broadcast, cds, snapshot, restore, compact opMetrics

	eventsApplied *telemetry.Counter
	eventBatches  *telemetry.Counter
	eventErrors   *telemetry.Counter
	applySecs     *telemetry.Histogram
	gatewayRuns   *telemetry.Counter
	gatewaySaved  *telemetry.Counter

	walAppends     *telemetry.Counter
	walBytes       *telemetry.Counter
	walFsyncSecs   *telemetry.Histogram
	compactions    *telemetry.Counter
	compactedNodes *telemetry.Counter

	encodeSecs  *telemetry.Histogram
	encodeBytes *telemetry.Counter
	lastBuild   *telemetry.Gauge // microseconds; -1 for restored deployments

	nodes, heads, gateways, cdsSize *telemetry.Gauge
}

func newDepMetrics() *depMetrics {
	set := telemetry.NewSet()
	op := func(name, what string) opMetrics {
		return opMetrics{
			requests: set.Counter("khopd_"+name+"_requests_total", what+" requests."),
			errors:   set.Counter("khopd_"+name+"_errors_total", what+" requests answered with a 4xx/5xx status."),
			seconds:  set.Histogram("khopd_"+name+"_seconds", what+" request latency."),
		}
	}
	return &depMetrics{
		set:       set,
		route:     op("route", "Route query"),
		broadcast: op("broadcast", "Broadcast query"),
		cds:       op("cds", "CDS structure"),
		snapshot:  op("snapshot", "Snapshot read"),
		restore:   op("restore", "Snapshot restore"),
		compact:   op("compact", "Compaction"),

		eventsApplied: set.Counter("khopd_events_applied_total", "Churn events applied."),
		eventBatches:  set.Counter("khopd_event_batches_total", "Churn batches applied (fully or partially)."),
		eventErrors:   set.Counter("khopd_event_errors_total", "Churn batches rejected or partially applied."),
		applySecs:     set.Histogram("khopd_apply_seconds", "Engine.Apply latency per churn batch (write-lock section)."),
		gatewayRuns:   set.Counter("khopd_gateway_runs_total", "Gateway selection runs across churn batches."),
		gatewaySaved:  set.Counter("khopd_gateway_saved_total", "Per-event gateway runs avoided by batch coalescing."),

		walAppends:     set.Counter("khopd_wal_appends_total", "Acked churn batches appended to the deployment WAL."),
		walBytes:       set.Counter("khopd_wal_bytes_total", "Bytes appended to the deployment WAL (frame included)."),
		walFsyncSecs:   set.Histogram("khopd_wal_fsync_seconds", "WAL fsync latency on appends that synced."),
		compactions:    set.Counter("khopd_compactions_total", "Snapshot compactions (explicit and auto-triggered)."),
		compactedNodes: set.Counter("khopd_compacted_nodes_total", "Departed slots removed by compactions."),

		encodeSecs:  set.Histogram("khopd_snapshot_encode_seconds", "Snapshot encode duration."),
		encodeBytes: set.Counter("khopd_snapshot_encode_bytes_total", "Snapshot bytes encoded."),
		lastBuild:   set.Gauge("khopd_last_build_microseconds", "Duration of the deployment's initial build; -1 when restored from a snapshot."),

		nodes:    set.Gauge("khopd_nodes", "Nodes in the deployment topology (including departed slots)."),
		heads:    set.Gauge("khopd_heads", "Current clusterheads."),
		gateways: set.Gauge("khopd_gateways", "Current gateway nodes."),
		cdsSize:  set.Gauge("khopd_cds_size", "Current CDS size (heads + gateways)."),
	}
}

// observeStructure refreshes the structure gauges from a summary.
// Called after the deployment lock is released.
func (m *depMetrics) observeStructure(sum api.Summary) {
	m.nodes.Set(int64(sum.N))
	m.heads.Set(int64(sum.Heads))
	m.gateways.Set(int64(sum.Gateways))
	m.cdsSize.Set(int64(sum.CDSSize))
}

// statusRecorder captures the response status for class counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// withHTTPMetrics counts every response into the status-class counters.
func (s *Server) withHTTPMetrics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		if c := rec.status / 100; c >= 1 && c <= 5 {
			s.tel.httpByClass[c].Inc()
		}
	})
}

// instrument wraps a per-deployment handler with its op metrics:
// latency and status are recorded strictly after the handler returns,
// i.e. after it has released the deployment lock.
func instrument(sel func(*depMetrics) *opMetrics, h func(http.ResponseWriter, *http.Request, *deployment)) func(http.ResponseWriter, *http.Request, *deployment) {
	return func(w http.ResponseWriter, r *http.Request, d *deployment) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r, d)
		elapsed := time.Since(start)
		m := sel(d.met)
		m.requests.Inc()
		if rec.status >= 400 {
			m.errors.Inc()
		}
		m.seconds.Observe(elapsed)
	}
}

// depSets snapshots the per-deployment metric sets for a scrape.
func (s *Server) depSets() map[string]*telemetry.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]*telemetry.Set, len(s.deps))
	for id, d := range s.deps {
		out[id] = d.met.set
	}
	return out
}

// handleMetrics serves the global exposition: process-wide series plus
// every deployment's series under a deployment label.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	telemetry.WriteGrouped(w, s.tel.set, "deployment", s.depSets())
}

// handleDepMetrics serves one deployment's exposition.
func (s *Server) handleDepMetrics(w http.ResponseWriter, _ *http.Request, d *deployment) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	d.met.set.Write(w, telemetry.Label{Name: "deployment", Value: d.id})
}
