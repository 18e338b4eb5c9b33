package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/api"
	"repro/internal/telemetry"
)

// A run sets its system up at least setupMinRepeats times and, while
// the set-ups together took less than setupBudget, again, up to
// setupMaxRepeats; setup_s is the median and the last set-up is the one
// measured. Cheap set-ups (a few ms on mixed_1k) so get enough repeats
// for a steady median, and dear ones (seconds on read_20k) the minimum.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 25
	setupBudget     = 2 * time.Second
)

// moreSetups reports whether another set-up follows n that took spent.
func moreSetups(n int, spent time.Duration) bool {
	return n < setupMinRepeats || (n < setupMaxRepeats && spent < setupBudget)
}

// createRequest creates the workload's network with explicit edges, so
// the server builds exactly the generated topology.
func createRequest(in *inputs) api.CreateRequest {
	return api.CreateRequest{ID: deploymentID, N: in.graph.N(), Edges: in.graph.Edges(), K: clusterK, Algorithm: algorithm}
}

// runServing measures one serving workload with reference windows
// running throughout, and divides every time metric by their host
// factor.
func runServing(ctx context.Context, cfg config, in *inputs, rep *report) error {
	stop := sampleHost()
	err := measureServing(ctx, cfg, in, rep)
	ref := stop()
	normalize(rep.metrics, ref)
	rep.metrics["host.ref_ms"] = ref
	return err
}

// measureServing measures one serving workload against khopd children:
// repeated set-ups (exec → healthz → create 201), the open-loop load on
// the last server, the output checks, and for the durable workload a
// kill -9 and recovery.
func measureServing(ctx context.Context, cfg config, in *inputs, rep *report) error {
	create := createRequest(in)
	stateDir := ""
	if in.w.durable {
		stateDir = filepath.Join(cfg.work, "state")
	}
	var srv *khopd
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var setups []float64
	var spent time.Duration
	for {
		if err := os.RemoveAll(stateDir); err != nil {
			return err
		}
		start := time.Now()
		k, err := startKhopd(cfg.khopd, stateDir)
		if err != nil {
			return err
		}
		srv = k
		if err := k.waitHealthy(ctx, func(api.Health) bool { return true }); err != nil {
			return err
		}
		if _, err := k.api.Create(ctx, create); err != nil {
			return fmt.Errorf("create: %w", err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds())
		if spent += d; !moreSetups(len(setups), spent) {
			break
		}
		k.kill()
		srv = nil
	}

	before, err := scrape(ctx, srv)
	if err != nil {
		return err
	}
	lr := runLoad(srv.api.BaseURL(), in)
	after, err := scrape(ctx, srv)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rep.errs = append(rep.errs, lr.errs...)

	m := rep.metrics
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = rss
	opMetrics(m, lr, in)
	khopdMetrics(m, before, after)
	for _, rs := range [][]opResult{lr.reads, lr.batches} {
		for _, r := range rs {
			rep.count(r.ok)
		}
	}

	// The deployment must now be byte-identical to an oracle Engine fed
	// the same edges and the acked batches, in order.
	var acked []int
	events := 0
	for i, r := range lr.batches {
		if r.ok {
			acked = append(acked, i)
			events += len(in.batches[i].events)
		}
	}
	want, err := oracleSnapshot(in, acked)
	if err != nil {
		return err
	}
	if err := checkSnapshot(ctx, srv, want, rep, "after load"); err != nil {
		return err
	}
	if !in.w.durable {
		return nil
	}

	// Crash and recover: every acked event must be replayed.
	srv.kill()
	srv = nil
	start := time.Now()
	k, err := startKhopd(cfg.khopd, stateDir)
	if err != nil {
		return err
	}
	srv = k
	err = k.waitHealthy(ctx, func(h api.Health) bool {
		st, ok := h.Stats[deploymentID]
		return ok && st.EventsApplied == events
	})
	rep.check(err == nil, "recovery: %v", err)
	m["khopd.recovery_s"] = time.Since(start).Seconds()
	return checkSnapshot(ctx, srv, want, rep, "after kill -9 and restart")
}

// checkSnapshot compares the deployment's snapshot with the oracle's.
func checkSnapshot(ctx context.Context, k *khopd, want []byte, rep *report, when string) error {
	got, err := k.api.Snapshot(ctx, deploymentID)
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", when, err)
	}
	rep.check(bytes.Equal(got, want), "snapshot %s differs from the oracle's (%d vs %d bytes)", when, len(got), len(want))
	return nil
}

// opMetrics derives the end-to-end metrics and their per-class detail
// from one load phase.
func opMetrics(m map[string]float64, lr *loadRun, in *inputs) {
	var all, lags []float64
	class := map[opKind][]float64{}
	add := func(kind opKind, r opResult) {
		lags = append(lags, ms(r.lag))
		if r.ok {
			all = append(all, ms(r.latency))
			class[kind] = append(class[kind], ms(r.latency))
		}
	}
	for i, r := range lr.reads {
		add(in.reads[i].kind, r)
	}
	for _, r := range lr.batches {
		add(opChurn, r)
	}
	elapsed := lr.end.Sub(lr.start).Seconds()
	setOpMetrics(m, all, len(in.reads)+len(in.batches), in.w.maxTail)
	m["ops_per_s"] = float64(len(all)) / elapsed

	route, bc, churn := sortedCopy(class[opRoute]), sortedCopy(class[opBroadcast]), sortedCopy(class[opChurn])
	m["op.route_p50_ms"] = at(route, p50)
	m["op.route_p99_ms"] = at(route, p99)
	m["op.broadcast_p50_ms"] = at(bc, p50)
	m["op.broadcast_p90_ms"] = at(bc, p90)
	m["op.churn_p50_ms"] = at(churn, p50)
	m["op.churn_p90_ms"] = at(churn, p90)
	m["op.read_ops_per_s"] = float64(len(route)+len(bc)) / elapsed
	m["op.churn_events_per_s"] = float64(len(churn)*in.w.batch) / elapsed
	m["loadgen.lag_p99_ms"] = at(sortedCopy(lags), p99)
	m["loadgen.sent_ops"] = float64(len(lags))
}

// setOpMetrics sets the latency metrics every workload shares from the
// latencies (ms) of its successful ops. The tail percentile follows from
// planned, the number of ops the workload's schedule holds, and not from
// how many completed, so a slow or failing run reports the same
// percentile as any other; it is at most maxTail (tailLevel).
func setOpMetrics(m map[string]float64, latencies []float64, planned int, maxTail level) {
	s := sortedCopy(latencies)
	tail := tailLevel(planned, maxTail)
	m["op_p50_ms"] = at(s, p50)
	m["op_tail_ms"] = at(s, tail)
	m["op.samples"] = float64(len(s))
	m["op.tail_pct"] = 100 * float64(tail.num) / float64(tail.den)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func scrape(ctx context.Context, k *khopd) (*telemetry.Scrape, error) {
	raw, err := k.api.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	return telemetry.ParseText(bytes.NewReader(raw))
}

// khopdMetrics reads the server's own view of the load phase: histogram
// quantiles and counter deltas of the benchmark deployment's series
// between two scrapes.
func khopdMetrics(m map[string]float64, before, after *telemetry.Scrape) {
	m["khopd.route_p50_ms"] = 1e3 * histQuantile(before, after, "khopd_route_seconds", 0.50)
	m["khopd.route_p99_ms"] = 1e3 * histQuantile(before, after, "khopd_route_seconds", 0.99)
	m["khopd.apply_p50_ms"] = 1e3 * histQuantile(before, after, "khopd_apply_seconds", 0.50)
	m["khopd.wal_fsync_p50_ms"] = 1e3 * histQuantile(before, after, "khopd_wal_fsync_seconds", 0.50)
	dep := map[string]string{"deployment": deploymentID}
	for metric, series := range map[string]string{
		"khopd.gateway_runs":  "khopd_gateway_runs_total",
		"khopd.gateway_saved": "khopd_gateway_saved_total",
	} {
		b, _ := before.Value(series, dep)
		a, _ := after.Value(series, dep)
		m[metric] = a - b
	}
}

// histQuantile is quantile q (seconds) of the observations a deployment
// histogram gained between two scrapes, interpolated inside its bucket
// as the telemetry package does; 0 with no observations.
func histQuantile(before, after *telemetry.Scrape, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for _, s := range after.Samples {
		if s.Name != name+"_bucket" || s.Labels["deployment"] != deploymentID {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		prev, _ := before.Value(s.Name, s.Labels)
		bs = append(bs, bucket{le, s.Value - prev})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].count
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= target {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(target-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}
