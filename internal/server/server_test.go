package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	khop "repro"
	"repro/api"
	"repro/client"
	"repro/internal/codec"
)

// tc wraps a test server in the typed client the e2e flows drive.
func tc(ts *httptest.Server) *client.Client {
	return client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

// do issues one raw request against ts and decodes the JSON response —
// kept (alongside the typed client) for the tests that probe the HTTP
// surface itself: malformed bodies, alias headers, status codes.
func do(t *testing.T, ts *httptest.Server, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
}

// fetchBytes GETs a raw (non-JSON) body.
func fetchBytes(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw
}

var createBody = api.CreateRequest{
	ID: "prod", N: 80, AvgDegree: 6, Seed: 7, K: 2, Algorithm: "AC-LMST",
}

// TestEndToEndRestart is the khopd acceptance path: build over the
// typed client, churn, snapshot, "restart" (a fresh Server), restore
// the snapshot — which runs khop.VerifyResult inside codec.Decode —
// and require byte-identical routing and structure answers pre/post
// restart.
func TestEndToEndRestart(t *testing.T) {
	ctx := context.Background()
	ts1 := httptest.NewServer(New(Config{}).Handler())
	defer ts1.Close()
	c1 := tc(ts1)

	sum, err := c1.Create(ctx, createBody)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ID != "prod" || sum.Heads == 0 || sum.CDSSize == 0 {
		t.Fatalf("implausible create summary: %+v", sum)
	}

	// Churn: a departure, a rejoin elsewhere, and a move.
	applied, err := c1.Events(ctx, "prod", []api.EventRequest{
		{Kind: "leave", Node: 5},
		{Kind: "leave", Node: 17},
		{Kind: "join", Node: 5, Neighbors: []int{1, 2}},
		{Kind: "move", Node: 9, Neighbors: []int{21, 22}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied.Applied != 4 || len(applied.Reports) != 4 {
		t.Fatalf("applied %d events (%d reports), want 4", applied.Applied, len(applied.Reports))
	}
	if applied.Summary.EventsApplied != 4 {
		t.Fatalf("summary says %d events applied, want 4", applied.Summary.EventsApplied)
	}

	// Routing answers before the restart.
	pairs := [][2]int{{0, 70}, {3, 44}, {12, 63}, {30, 55}}
	before := make([]api.RouteResponse, len(pairs))
	for i, p := range pairs {
		if before[i], err = c1.Route(ctx, "prod", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	cdsBefore, err := c1.CDS(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}

	snap, err := c1.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	// The wire blob is a verified snapshot in its own right.
	if _, err := codec.DecodeBytes(snap); err != nil {
		t.Fatalf("served snapshot does not decode: %v", err)
	}

	// "Restart": a brand-new server process, state restored from the blob.
	ts2 := httptest.NewServer(New(Config{}).Handler())
	defer ts2.Close()
	c2 := tc(ts2)
	restored, err := c2.Restore(ctx, "prod", snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Heads != applied.Summary.Heads || restored.CDSSize != applied.Summary.CDSSize {
		t.Fatalf("restored summary %+v does not match pre-restart %+v", restored, applied.Summary)
	}

	for i, p := range pairs {
		after, err := c2.Route(ctx, "prod", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before[i]) {
			t.Errorf("route %v changed across restart: %+v -> %+v", p, before[i], after)
		}
	}
	cdsAfter, err := c2.CDS(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cdsAfter, cdsBefore) {
		t.Error("CDS structure changed across restart")
	}

	// Churn keeps working on the restored deployment, including a
	// rejoin of the node that was departed at snapshot time.
	if _, err := c2.Events(ctx, "prod", []api.EventRequest{
		{Kind: "join", Node: 17, Neighbors: []int{40, 41}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeprecatedAliases pins the end of the /v1 migration: the bare
// (un-versioned) aliases reached their announced 2026-01-01 sunset and
// are gone — bare paths answer 404 with no deprecation headers (there
// is nothing left to deprecate), while the /v1 successors keep
// working, and the khopd_deprecated_path_total series no longer
// exists.
func TestDeprecatedAliases(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	if _, err := tc(ts).Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}

	for _, bare := range []string{
		"/deployments",
		"/deployments/prod",
		"/deployments/prod/route?src=0&dst=1",
		"/healthz",
		"/metrics",
	} {
		resp, err := ts.Client().Get(ts.URL + bare)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (bare aliases are past sunset)", bare, resp.StatusCode)
		}
		if got := resp.Header.Get("Deprecation"); got != "" {
			t.Errorf("GET %s: Deprecation header %q on a removed path", bare, got)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/deployments/prod")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/deployments/prod: status %d, want 200", resp.StatusCode)
	}

	sc := scrape(t, ts, "/v1/metrics")
	if _, ok := sc.Value("khopd_deprecated_path_total", nil); ok {
		t.Error("khopd_deprecated_path_total still exposed after alias removal")
	}
}

// assertNoTempFiles fails if an atomic state-dir write left its temp
// file behind.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("temp files left in the state dir: %v", left)
	}
}

// TestSaveLoadRoundTrip covers the graceful path: Save checkpoints
// every deployment (snapshot + truncated WAL) and Load brings them
// back, skipping bit-rotted files. Neither the create nor the
// checkpoint writes leave a temp file behind.
func TestSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "state")
	s1 := New(Config{StateDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	c1 := tc(ts1)
	if _, err := c1.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}
	second := createBody
	second.ID = "edge-eu.1"
	second.Seed = 11
	if _, err := c1.Create(ctx, second); err != nil {
		t.Fatal(err)
	}
	assertNoTempFiles(t, dir)
	if _, err := c1.Events(ctx, "prod", []api.EventRequest{{Kind: "leave", Node: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}
	assertNoTempFiles(t, dir)
	for _, f := range []string{"prod.khop", "edge-eu.1.khop"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("Save did not write %s: %v", f, err)
		}
	}

	// A corrupt snapshot in the state dir must not take the healthy
	// deployments down with it: Load skips it with a warning.
	if err := os.WriteFile(filepath.Join(dir, "rotted.khop"), []byte("bit rot"), 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{StateDir: dir})
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	list, err := tc(ts2).List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("loaded %d deployments, want 2", len(list))
	}
	if list[0].ID != "edge-eu.1" || list[1].ID != "prod" {
		t.Fatalf("unexpected ids: %+v", list)
	}

	// Load with a state dir that never existed is a clean first boot.
	if err := New(Config{StateDir: filepath.Join(t.TempDir(), "nope")}).Load(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryReplaysWAL is the durability acceptance test: churn
// is acked, the process "crashes" (no Save, no drain — the server
// value is simply abandoned), and a fresh server on the same state dir
// must reproduce the exact pre-crash state from base snapshot + WAL
// suffix: byte-identical snapshot, identical route answers, and an
// events_applied count equal to every event acked since the last
// checkpoint.
func TestCrashRecoveryReplaysWAL(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ts1 := httptest.NewServer(New(Config{StateDir: dir}).Handler())
	c1 := tc(ts1)
	if _, err := c1.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}

	// Acked batches (these land in the WAL)...
	batches := [][]api.EventRequest{
		{{Kind: "leave", Node: 5}, {Kind: "leave", Node: 17}},
		{{Kind: "join", Node: 5, Neighbors: []int{1, 2}}},
		{{Kind: "move", Node: 9, Neighbors: []int{21, 22}}},
	}
	acked := 0
	for _, b := range batches {
		resp, err := c1.Events(ctx, "prod", b)
		if err != nil {
			t.Fatal(err)
		}
		acked += resp.Applied
	}
	// ...plus a partial batch, which must checkpoint instead of logging
	// a prefix (replaying a prefix as its own batch is not guaranteed to
	// reproduce the mid-batch state).
	partial, err := c1.Events(ctx, "prod", []api.EventRequest{
		{Kind: "leave", Node: 30},
		{Kind: "leave", Node: 30}, // double leave fails mid-batch
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial batch: err = %v, want a 422 APIError", err)
	}
	if partial.Applied != 1 {
		t.Fatalf("partial batch applied %d, want 1", partial.Applied)
	}
	// And one more acked batch on top of the checkpoint.
	resp, err := c1.Events(ctx, "prod", []api.EventRequest{{Kind: "join", Node: 30, Neighbors: []int{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	postCheckpoint := resp.Applied

	snapBefore, err := c1.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{{0, 70}, {3, 44}, {12, 63}}
	routesBefore := make([]api.RouteResponse, len(pairs))
	for i, p := range pairs {
		if routesBefore[i], err = c1.Route(ctx, "prod", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Save, no graceful anything.
	ts1.Close()

	s2 := New(Config{StateDir: dir})
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := tc(ts2)

	snapAfter, err := c2.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBefore, snapAfter) {
		t.Fatal("post-recovery snapshot is not byte-identical to the pre-crash one")
	}
	for i, p := range pairs {
		after, err := c2.Route(ctx, "prod", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, routesBefore[i]) {
			t.Errorf("route %v changed across crash recovery: %+v -> %+v", p, routesBefore[i], after)
		}
	}
	// Everything acked after the partial-batch checkpoint was replayed
	// from the WAL (the rest is baked into the base snapshot).
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Stats["prod"].EventsApplied; got != postCheckpoint {
		t.Fatalf("replayed %d events, want %d (the post-checkpoint WAL suffix)", got, postCheckpoint)
	}
	if acked == 0 {
		t.Fatal("sanity: no events were acked pre-crash")
	}

	// The recovered deployment is live: more churn still acks.
	if _, err := c2.Events(ctx, "prod", []api.EventRequest{{Kind: "leave", Node: 12}}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactEndpoint drives POST .../compact: departed slots vanish,
// the translation table speaks the original id space, the snapshot
// becomes a codec v2 blob, and queries keep working in the new id
// space.
func TestCompactEndpoint(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := tc(ts)
	if _, err := c.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Events(ctx, "prod", []api.EventRequest{
		{Kind: "leave", Node: 5}, {Kind: "leave", Node: 17},
	}); err != nil {
		t.Fatal(err)
	}

	cr, err := c.Compact(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Dropped != 2 || cr.Alive != createBody.N-2 || cr.OrigN != createBody.N {
		t.Fatalf("compact: %+v, want dropped=2 alive=%d orig_n=%d", cr, createBody.N-2, createBody.N)
	}
	if len(cr.Table) != createBody.N || cr.Table[5] != -1 || cr.Table[17] != -1 {
		t.Fatalf("translation table does not mark the departed slots: %v", cr.Table)
	}
	if cr.Summary.N != createBody.N-2 || cr.Summary.OrigN != createBody.N {
		t.Fatalf("post-compact summary: %+v", cr.Summary)
	}

	// The emitted snapshot is now a v2 blob carrying the table.
	raw, err := c.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if raw[8] != codec.VersionCompact {
		t.Fatalf("snapshot version byte = %d, want %d", raw[8], codec.VersionCompact)
	}
	snap, err := codec.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Orig, cr.Table) {
		t.Fatal("snapshot Orig table differs from the compact response table")
	}

	// Queries keep working in the compacted id space.
	if _, err := c.Route(ctx, "prod", 0, 10); err != nil {
		t.Fatal(err)
	}
	// Idempotent: nothing left to drop, table unchanged.
	again, err := c.Compact(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if again.Dropped != 0 || !reflect.DeepEqual(again.Table, cr.Table) {
		t.Fatalf("second compact: dropped=%d, table drift=%v", again.Dropped, !reflect.DeepEqual(again.Table, cr.Table))
	}

	// And a v2 blob restores into a fresh server with its table intact.
	ts2 := httptest.NewServer(New(Config{}).Handler())
	defer ts2.Close()
	sum, err := tc(ts2).Restore(ctx, "prod", raw)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OrigN != createBody.N || sum.N != createBody.N-2 {
		t.Fatalf("restored v2 summary: %+v", sum)
	}
}

// TestAutoCompaction pins Config.CompactAfter: once enough events have
// applied since the last checkpoint the server compacts on its own,
// truncating the WAL — a crash right after must recover from the v2
// base snapshot with nothing left to replay.
func TestAutoCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ts1 := httptest.NewServer(New(Config{StateDir: dir, CompactAfter: 2}).Handler())
	c1 := tc(ts1)
	if _, err := c1.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.Events(ctx, "prod", []api.EventRequest{
		{Kind: "leave", Node: 5}, {Kind: "leave", Node: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Summary.OrigN != createBody.N || resp.Summary.N != createBody.N-2 {
		t.Fatalf("auto-compaction did not run: %+v", resp.Summary)
	}
	snapBefore, err := c1.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // crash

	s2 := New(Config{StateDir: dir, CompactAfter: 2})
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := tc(ts2)
	snapAfter, err := c2.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBefore, snapAfter) {
		t.Fatal("auto-compacted snapshot did not survive the crash byte-identically")
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Stats["prod"].EventsApplied; got != 0 {
		t.Fatalf("replayed %d events, want 0 (the auto-compaction checkpoint truncated the WAL)", got)
	}
}

func TestAPIErrors(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	if _, err := tc(ts).Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, method, path string
		body               any
		status             int
	}{
		{"duplicate id", "POST", "/v1/deployments", createBody, http.StatusConflict},
		{"bad id", "POST", "/v1/deployments", api.CreateRequest{ID: "../evil", N: 10}, http.StatusBadRequest},
		{"zero n", "POST", "/v1/deployments", api.CreateRequest{ID: "x", N: 0}, http.StatusBadRequest},
		{"bad algorithm", "POST", "/v1/deployments", api.CreateRequest{ID: "x", N: 10, Algorithm: "Steiner"}, http.StatusBadRequest},
		{"bad edge", "POST", "/v1/deployments", api.CreateRequest{ID: "x", N: 4, Edges: [][2]int{{0, 9}}}, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/deployments", map[string]any{"id": "x", "n": 10, "nodes": 10}, http.StatusBadRequest},
		{"unknown deployment", "GET", "/v1/deployments/ghost/cds", nil, http.StatusNotFound},
		{"delete unknown", "DELETE", "/v1/deployments/ghost", nil, http.StatusNotFound},
		{"compact unknown", "POST", "/v1/deployments/ghost/compact", nil, http.StatusNotFound},
		{"empty batch", "POST", "/v1/deployments/prod/events", map[string]any{"events": []api.EventRequest{}}, http.StatusBadRequest},
		{"unknown kind", "POST", "/v1/deployments/prod/events",
			map[string]any{"events": []api.EventRequest{{Kind: "explode", Node: 1}}}, http.StatusBadRequest},
		{"event out of range", "POST", "/v1/deployments/prod/events",
			map[string]any{"events": []api.EventRequest{{Kind: "leave", Node: 9999}}}, http.StatusUnprocessableEntity},
		{"route missing params", "GET", "/v1/deployments/prod/route", nil, http.StatusBadRequest},
		{"route bad node", "GET", "/v1/deployments/prod/route?src=0&dst=12345", nil, http.StatusBadRequest},
		{"broadcast bad src", "GET", "/v1/deployments/prod/broadcast?src=-2", nil, http.StatusBadRequest},
		{"restore garbage", "POST", "/v1/deployments/g2/snapshot", []byte("not a snapshot"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			do(t, ts, tc.method, tc.path, tc.body, tc.status, nil)
		})
	}

	// The typed client surfaces the same statuses as *APIError.
	_, err := tc(ts).Summary(ctx, "ghost")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("client error mapping: %v, want a 404 APIError", err)
	}

	// Restoring over an existing id conflicts rather than clobbers.
	snap, err := tc(ts).Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc(ts).Restore(ctx, "prod", snap); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("restore over existing id: %v, want a 409 APIError", err)
	}
	// A valid snapshot under a fresh id restores fine.
	if _, err := tc(ts).Restore(ctx, "prod2", snap); err != nil {
		t.Fatal(err)
	}
}

// TestPartialBatchReported pins the partial-application contract: a
// batch that fails mid-way answers 422 with the repairs that did land.
func TestPartialBatchReported(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := tc(ts)
	if _, err := c.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Events(ctx, "prod", []api.EventRequest{
		{Kind: "leave", Node: 4},
		{Kind: "leave", Node: 4}, // double leave fails mid-batch
		{Kind: "leave", Node: 6},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("partial batch error: %v, want a 422 APIError", err)
	}
	if resp.Applied != 1 || len(resp.Reports) != 1 || resp.Error == "" {
		t.Fatalf("partial batch: %+v", resp)
	}
	// The first leave is real state: node 4 must stay departed.
	if _, err := c.Events(ctx, "prod", []api.EventRequest{
		{Kind: "join", Node: 4, Neighbors: []int{1}},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastAndHealth(t *testing.T) {
	ctx := context.Background()
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := tc(ts)
	if _, err := c.Create(ctx, createBody); err != nil {
		t.Fatal(err)
	}
	b, err := c.Broadcast(ctx, "prod", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Covered || b.Reached != createBody.N {
		t.Fatalf("CDS broadcast did not cover the network: %+v", b)
	}
	if b.Forwarders >= createBody.N {
		t.Fatalf("broadcast plan saves nothing: %d forwarders of %d nodes", b.Forwarders, createBody.N)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health: %+v", h)
	}
}

// TestRestoredModeRoundTrips pins snapshot header fidelity: a
// Distributed deployment restored into the server must re-emit its
// snapshot as Distributed, not be silently rewritten to Centralized.
func TestRestoredModeRoundTrips(t *testing.T) {
	ctx := context.Background()
	net, err := khop.RandomNetwork(khop.NetworkConfig{N: 50, AvgDegree: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := khop.NewEngine(net.Graph(), khop.WithK(2), khop.WithMode(khop.Distributed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(ctx); err != nil {
		t.Fatal(err)
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
	c := tc(ts)
	if _, err := c.Restore(ctx, "dist", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Snapshot(ctx, "dist")
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Mode != khop.Distributed {
		t.Fatalf("re-emitted snapshot mode = %v, want %v", back.Mode, khop.Distributed)
	}
}
