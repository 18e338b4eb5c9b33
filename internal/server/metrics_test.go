package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	khop "repro"
	"repro/api"
	"repro/internal/codec"
	"repro/internal/telemetry"
)

// scrape GETs path and parses it as a Prometheus text exposition.
func scrape(t *testing.T, ts *httptest.Server, path string) *telemetry.Scrape {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("GET %s: Content-Type %q, want %q", path, ct, telemetry.ContentType)
	}
	sc, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: exposition does not parse: %v", path, err)
	}
	return sc
}

// TestMetricsEndpoints pins the scrape contract after known traffic:
// the exposition parses, and the counters equal what was served.
func TestMetricsEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	do(t, ts, "POST", "/v1/deployments", createBody, 201, nil)

	const routes, casts = 7, 3
	for i := 0; i < routes; i++ {
		do(t, ts, "GET", fmt.Sprintf("/v1/deployments/prod/route?src=%d&dst=%d", i, 40+i), nil, 200, nil)
	}
	for i := 0; i < casts; i++ {
		do(t, ts, "GET", fmt.Sprintf("/v1/deployments/prod/broadcast?src=%d", i), nil, 200, nil)
	}
	do(t, ts, "GET", "/v1/deployments/prod/route?src=0&dst=99999", nil, 400, nil)
	do(t, ts, "POST", "/v1/deployments/prod/events", map[string]any{"events": []api.EventRequest{
		{Kind: "leave", Node: 3}, {Kind: "leave", Node: 9},
	}}, 200, nil)
	if raw := fetchBytes(t, ts, "/v1/deployments/prod/snapshot"); len(raw) == 0 {
		t.Fatal("empty snapshot")
	}

	labels := map[string]string{"deployment": "prod"}
	for _, path := range []string{"/v1/metrics", "/v1/deployments/prod/metrics"} {
		sc := scrape(t, ts, path)
		checks := []struct {
			name string
			want float64
		}{
			{"khopd_route_requests_total", routes + 1},
			{"khopd_route_errors_total", 1},
			{"khopd_route_seconds_count", routes + 1},
			{"khopd_broadcast_requests_total", casts},
			{"khopd_events_applied_total", 2},
			{"khopd_event_batches_total", 1},
			{"khopd_apply_seconds_count", 1},
			{"khopd_snapshot_requests_total", 1},
			{"khopd_snapshot_encode_seconds_count", 1},
			{"khopd_nodes", float64(createBody.N)},
		}
		for _, c := range checks {
			if v, ok := sc.Value(c.name, labels); !ok || v != c.want {
				t.Errorf("%s: %s = %v (present=%v), want %v", path, c.name, v, ok, c.want)
			}
		}
		// Coalescing stats surface: two leaves in one batch ran gateway
		// selection at most once more than it saved.
		runs, _ := sc.Value("khopd_gateway_runs_total", labels)
		saved, _ := sc.Value("khopd_gateway_saved_total", labels)
		if runs+saved == 0 {
			t.Errorf("%s: no gateway coalescing stats (runs=%v saved=%v)", path, runs, saved)
		}
		if v, ok := sc.Value("khopd_snapshot_encode_bytes_total", labels); !ok || v <= 0 {
			t.Errorf("%s: snapshot encode bytes = %v", path, v)
		}
	}

	// Global-only series.
	sc := scrape(t, ts, "/v1/metrics")
	if v, ok := sc.Value("khopd_build_seconds_count", nil); !ok || v != 1 {
		t.Errorf("build count = %v, want 1", v)
	}
	if v, ok := sc.Value("khopd_deployments", nil); !ok || v != 1 {
		t.Errorf("deployments gauge = %v, want 1", v)
	}
	if v, ok := sc.Value("khopd_http_2xx_total", nil); !ok || v == 0 {
		t.Errorf("2xx counter = %v, want > 0", v)
	}
	if v, ok := sc.Value("khopd_http_4xx_total", nil); !ok || v != 1 {
		t.Errorf("4xx counter = %v, want 1", v)
	}
	if v, ok := sc.Value("khopd_last_build_microseconds", labels); !ok || v <= 0 {
		t.Errorf("last build duration = %v, want > 0", v)
	}
}

// TestMetricsScrapeUnderConcurrentLoad is the -race scrape-correctness
// test: readers, a churn writer, and scrapers run together; every
// scrape must parse and every counter/cumulative-bucket series must be
// monotone across scrapes.
func TestMetricsScrapeUnderConcurrentLoad(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	do(t, ts, "POST", "/v1/deployments", createBody, 201, nil)

	const rounds = 25
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Get(fmt.Sprintf(
					"%s/v1/deployments/prod/route?src=%d&dst=%d", ts.URL, i%40, 40+i%39))
				if err == nil {
					resp.Body.Close()
				}
				i++
			}
		}(w * 13)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := createBody.N
		for cycle := 0; ; cycle++ {
			select {
			case <-stop:
				return
			default:
			}
			node := n - 1 - cycle%2
			body, _ := marshalEvents(
				api.EventRequest{Kind: "leave", Node: node},
				api.EventRequest{Kind: "join", Node: node, Neighbors: []int{1, 2}},
			)
			resp, err := ts.Client().Post(ts.URL+"/v1/deployments/prod/events", "application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	prev := map[string]float64{}
	gaugeFamilies := map[string]bool{}
	for i := 0; i < rounds; i++ {
		sc := scrape(t, ts, "/v1/metrics")
		for name, typ := range sc.Types {
			if typ == "gauge" {
				gaugeFamilies[name] = true
			}
		}
		for _, s := range sc.Samples {
			base := strings.TrimSuffix(strings.TrimSuffix(s.Name, "_sum"), "_count")
			base = strings.TrimSuffix(base, "_bucket")
			if gaugeFamilies[base] {
				continue // gauges may move either way
			}
			key := s.Name + fmt.Sprint(s.Labels)
			if s.Value < prev[key] {
				t.Fatalf("scrape %d: %s went backwards: %v -> %v", i, key, prev[key], s.Value)
			}
			prev[key] = s.Value
		}
	}
	close(stop)
	wg.Wait()
}

func marshalEvents(evs ...api.EventRequest) ([]byte, error) {
	return json.Marshal(map[string]any{"events": evs})
}

// TestSummaryReportsCost pins the Result.Cost plumb: a deployment
// restored from a Distributed-mode snapshot reports the protocol's
// message budget in its summary (and list/healthz keep working).
func TestSummaryReportsCost(t *testing.T) {
	net, err := khop.RandomNetwork(khop.NetworkConfig{N: 60, AvgDegree: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := khop.NewEngine(net.Graph(), khop.WithK(2), khop.WithMode(khop.Distributed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost == nil {
		t.Fatal("distributed build has nil Cost")
	}
	snap, err := codec.FromEngine(eng, khop.Distributed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	var sum api.Summary
	do(t, ts, "POST", "/v1/deployments/dist/snapshot", buf.Bytes(), 201, &sum)
	if sum.Cost == nil {
		t.Fatal("restored distributed deployment summary has no cost")
	}
	if sum.Cost.Rounds != res.Cost.Rounds ||
		sum.Cost.Transmissions != res.Cost.Transmissions ||
		sum.Cost.Deliveries != res.Cost.Deliveries {
		t.Fatalf("cost %+v does not match build cost %+v", sum.Cost, res.Cost)
	}

	// A Centralized deployment keeps the field absent, not zeroed.
	var central api.Summary
	do(t, ts, "POST", "/v1/deployments", createBody, 201, &central)
	if central.Cost != nil {
		t.Fatalf("centralized deployment reports cost %+v", central.Cost)
	}
}

// TestHealthzReport pins the readiness JSON the load harness gates on.
func TestHealthzReport(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	do(t, ts, "POST", "/v1/deployments", createBody, 201, nil)
	do(t, ts, "POST", "/v1/deployments/prod/events", map[string]any{"events": []api.EventRequest{
		{Kind: "leave", Node: 2},
	}}, 200, nil)

	var h api.Health
	do(t, ts, "GET", "/v1/healthz", nil, 200, &h)
	if h.Status != "ok" || h.Version != Version {
		t.Fatalf("health header: %+v", h)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v, want > 0", h.UptimeSeconds)
	}
	if h.Deployments != 1 || len(h.Stats) != 1 {
		t.Fatalf("deployment counts: %+v", h)
	}
	stat := h.Stats["prod"]
	if stat.Nodes != createBody.N || stat.EventsApplied != 1 || stat.Heads == 0 {
		t.Fatalf("prod stats: %+v", stat)
	}
}
