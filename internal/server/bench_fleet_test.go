package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/fleet"
	"repro/internal/telemetry"
)

// The forwarding A/B: three legs over the identical deployment and
// query stream, so the deltas isolate what fleet mode costs.
//
//   - Standalone      — no ring at all; the pre-fleet baseline.
//   - FleetDirect     — a 2-node fleet, queries sent to the owner. The
//     only added work is the routed() placement check (a ring lookup
//     plus a map probe), and the acceptance bar is p95 within 5% of
//     Standalone — direct owner hits must not pay for the fleet.
//   - FleetForwarded  — same fleet, queries sent to the non-owner, so
//     every request takes the full proxy hop. This leg prices
//     forwarding itself (an extra HTTP round trip); it has no
//     single-digit bar, it is documented in docs/benchmarks.md so the
//     "talk to any node" convenience has a visible cost.
//
// All legs report client-observed p50/p95/p99 like the mixed-load
// benches, reads only (no churn writer): the write path during
// rebalancing is priced by the migration metrics, not here.

func BenchmarkServerForwardingStandalone(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	benchRouteStream(b, ts, benchFleetCreate(b, ts))
}

func BenchmarkServerForwardingFleetDirect(b *testing.B) {
	owner, other := benchFleetPair(b)
	benchRouteStream(b, owner, benchFleetCreate(b, owner))
	_ = other
}

func BenchmarkServerForwardingFleetForwarded(b *testing.B) {
	owner, other := benchFleetPair(b)
	benchRouteStream(b, other, benchFleetCreate(b, owner))
}

// benchFleetPair boots a 2-node fleet and returns (owner, other) for
// the benchmark deployment id, so each leg aims its queries exactly.
func benchFleetPair(b *testing.B) (owner, other *httptest.Server) {
	b.Helper()
	s1 := New(Config{NodeID: "n1"})
	s2 := New(Config{NodeID: "n2"})
	ts1 := httptest.NewServer(s1.Handler())
	ts2 := httptest.NewServer(s2.Handler())
	b.Cleanup(ts1.Close)
	b.Cleanup(ts2.Close)
	members := []fleet.Member{{ID: "n1", Addr: ts1.URL}, {ID: "n2", Addr: ts2.URL}}
	for _, s := range []*Server{s1, s2} {
		if _, _, err := s.SetMembership(context.Background(), members); err != nil {
			b.Fatal(err)
		}
	}
	ring, err := fleet.New(members)
	if err != nil {
		b.Fatal(err)
	}
	if ring.Owner("bench").ID == "n1" {
		return ts1, ts2
	}
	return ts2, ts1
}

// benchFleetCreate provisions the benchmark deployment via ts and
// returns its stable node count.
func benchFleetCreate(b *testing.B, ts *httptest.Server) int {
	b.Helper()
	const n = 300
	body, _ := json.Marshal(api.CreateRequest{ID: "bench", N: n, AvgDegree: 6, Seed: 1, K: 2, Algorithm: "AC-LMST"})
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: status %d", resp.StatusCode)
	}
	return n
}

// benchRouteStream drives the shared deterministic route-query stream
// at entry and reports mean plus client-observed latency percentiles.
func benchRouteStream(b *testing.B, entry *httptest.Server, n int) {
	var queries atomic.Int64
	lat := telemetry.NewHistogram()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := entry.Client()
		for pb.Next() {
			q := queries.Add(1)
			src := int(q*31) % n
			dst := int(q*17+7) % n
			t0 := time.Now()
			resp, err := client.Get(fmt.Sprintf("%s/v1/deployments/bench/route?src=%d&dst=%d", entry.URL, src, dst))
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			lat.Observe(time.Since(t0))
			if resp.StatusCode != http.StatusOK {
				b.Errorf("route %d→%d: status %d", src, dst, resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50-ns/op", 0.5}, {"p95-ns/op", 0.95}, {"p99-ns/op", 0.99}} {
		b.ReportMetric(lat.Quantile(q.q)*float64(time.Second), q.name)
	}
}
