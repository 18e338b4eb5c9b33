package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// BenchmarkServerMixedLoad is the in-process load generator the tentpole
// asks for: N parallel readers hammer the route endpoint over real HTTP
// while one writer goroutine applies churn batches to the same
// deployment, so the per-deployment read/write locking (concurrent
// queries, serialized churn) is what the number measures. Reported
// ns/op is per routed query under churn; p50/p95/p99-ns/op are
// client-observed per-query latency percentiles from a
// telemetry.Histogram, so the tail under write-lock contention is
// visible, not just the mean.
func BenchmarkServerMixedLoad(b *testing.B) {
	benchMixedLoad(b, Config{})
}

// BenchmarkServerMixedLoadWALInterval is the durable variant: every
// churn batch is WAL-appended before its ack with the interval fsync
// policy (the recommended production setting). The acceptance bar is
// routed-query throughput within 10% of BenchmarkServerMixedLoad —
// appends are buffered writes off the read path, so the cost lands on
// the churn writer, not the readers.
func BenchmarkServerMixedLoadWALInterval(b *testing.B) {
	benchMixedLoad(b, Config{StateDir: b.TempDir(), WALSync: wal.SyncInterval})
}

// BenchmarkServerMixedLoadWALAlways prices the strict policy: one
// fsync per acked churn batch.
func BenchmarkServerMixedLoadWALAlways(b *testing.B) {
	benchMixedLoad(b, Config{StateDir: b.TempDir(), WALSync: wal.SyncAlways})
}

func benchMixedLoad(b *testing.B, cfg Config) {
	const (
		n         = 300
		batchSize = 8
	)
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	create := api.CreateRequest{ID: "bench", N: n, AvgDegree: 6, Seed: 1, K: 2, Algorithm: "AC-LMST"}
	body, _ := json.Marshal(create)
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: status %d", resp.StatusCode)
	}

	// Churn writer: an endless leave/join cycle over a reserved node
	// range (readers only query outside it, so routes stay resolvable).
	// Runs until the benchmark ends; errors surface after StopTimer.
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		cycle := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			events := make([]api.EventRequest, 0, 2*batchSize)
			base := n - batchSize // churn the top batchSize nodes
			for i := 0; i < batchSize; i++ {
				events = append(events,
					api.EventRequest{Kind: "leave", Node: base + i},
					api.EventRequest{Kind: "join", Node: base + i, Neighbors: []int{i, i + 1}},
				)
			}
			raw, _ := json.Marshal(map[string]any{"events": events})
			resp, err := ts.Client().Post(ts.URL+"/v1/deployments/bench/events", "application/json", bytes.NewReader(raw))
			if err != nil {
				writerDone <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				writerDone <- fmt.Errorf("churn batch %d: status %d", cycle, resp.StatusCode)
				return
			}
			cycle++
		}
	}()

	var queries atomic.Int64
	lat := telemetry.NewHistogram()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			q := queries.Add(1)
			// Deterministic pair stream over the stable node range.
			src := int(q*31) % (n - batchSize)
			dst := int(q*17+7) % (n - batchSize)
			t0 := time.Now()
			resp, err := client.Get(fmt.Sprintf("%s/v1/deployments/bench/route?src=%d&dst=%d", ts.URL, src, dst))
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
	close(stop)
	if err := <-writerDone; err != nil {
		b.Fatalf("churn writer: %v", err)
	}
}
