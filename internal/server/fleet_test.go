package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/api"
	"repro/client"
	"repro/internal/fleet"
)

// fleetNode is one in-process khopd in a test fleet.
type fleetNode struct {
	id string
	s  *Server
	ts *httptest.Server
	c  *client.Client
}

// startNode boots one fleet node (no membership yet).
func startNode(t *testing.T, id string, cfg Config) *fleetNode {
	t.Helper()
	cfg.NodeID = id
	s := New(cfg)
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &fleetNode{id: id, s: s, ts: ts, c: client.New(ts.URL)}
}

// join applies a shared membership to every node directly (the boot
// path; the propagation path is covered via UpdateMembership).
func join(t *testing.T, nodes ...*fleetNode) []fleet.Member {
	t.Helper()
	members := make([]fleet.Member, len(nodes))
	for i, n := range nodes {
		members[i] = fleet.Member{ID: n.id, Addr: n.ts.URL}
	}
	for _, n := range nodes {
		if _, _, err := n.s.SetMembership(context.Background(), members); err != nil {
			t.Fatalf("node %s: SetMembership: %v", n.id, err)
		}
	}
	return members
}

func fleetCreate(n int) []api.CreateRequest {
	out := make([]api.CreateRequest, n)
	for i := range out {
		out[i] = api.CreateRequest{
			ID: fmt.Sprintf("dep-%02d", i), N: 40, AvgDegree: 5, Seed: int64(100 + i), K: 2,
		}
	}
	return out
}

// TestFleetForwardingTransparency is the 3-node e2e: every /v1 request
// works against every node — creates route to the owner, reads through
// a non-owner answer byte-identically to the owner's, churn through a
// non-owner lands on the owner — and placement is consistent across
// the fleet.
func TestFleetForwardingTransparency(t *testing.T) {
	ctx := context.Background()
	nodes := []*fleetNode{
		startNode(t, "n1", Config{}),
		startNode(t, "n2", Config{}),
		startNode(t, "n3", Config{}),
	}
	join(t, nodes...)

	// All creates go through n1; the ring decides where they live.
	reqs := fleetCreate(9)
	for _, req := range reqs {
		if _, err := nodes[0].c.Create(ctx, req); err != nil {
			t.Fatalf("create %s via n1: %v", req.ID, err)
		}
	}

	// Every node agrees on every placement, and each deployment is
	// local exactly on its owner.
	owners := map[string]string{}
	for _, req := range reqs {
		var want api.PlacementResponse
		for i, n := range nodes {
			got, err := n.c.Placement(ctx, req.ID)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
			} else if got.Owner != want.Owner || got.RingVersion != want.RingVersion {
				t.Fatalf("placement(%s) differs: n1 says %+v, %s says %+v", req.ID, want, n.id, got)
			}
			if got.Local != (got.Owner.ID == n.id) {
				t.Errorf("placement(%s) on %s: local=%v but owner=%s", req.ID, n.id, got.Local, got.Owner.ID)
			}
		}
		owners[req.ID] = want.Owner.ID
	}
	distinct := map[string]bool{}
	for _, o := range owners {
		distinct[o] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d deployments landed on one node — ring is not spreading", len(reqs))
	}

	// Reads through a non-owner match the owner byte for byte.
	for _, req := range reqs {
		var owner, other *fleetNode
		for _, n := range nodes {
			if n.id == owners[req.ID] {
				owner = n
			} else if other == nil {
				other = n
			}
		}
		direct, err := owner.c.Snapshot(ctx, req.ID)
		if err != nil {
			t.Fatal(err)
		}
		forwarded, err := other.c.Snapshot(ctx, req.ID)
		if err != nil {
			t.Fatalf("snapshot %s via non-owner %s: %v", req.ID, other.id, err)
		}
		if string(direct) != string(forwarded) {
			t.Fatalf("snapshot %s differs owner vs forwarded", req.ID)
		}
		rd, err := owner.c.Route(ctx, req.ID, 0, 30)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := other.c.Route(ctx, req.ID, 0, 30)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Hops != rf.Hops || len(rd.Route) != len(rf.Route) {
			t.Fatalf("route %s differs owner vs forwarded: %+v vs %+v", req.ID, rd, rf)
		}
	}

	// Churn through a non-owner applies on the owner.
	target := reqs[0].ID
	var nonOwner *fleetNode
	for _, n := range nodes {
		if n.id != owners[target] {
			nonOwner = n
			break
		}
	}
	resp, err := nonOwner.c.Events(ctx, target, []api.EventRequest{{Kind: "leave", Node: 7}})
	if err != nil {
		t.Fatalf("events via non-owner: %v", err)
	}
	if resp.Applied != 1 {
		t.Fatalf("events via non-owner applied %d, want 1", resp.Applied)
	}
	sum, err := nodes[2].c.Summary(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if sum.EventsApplied != 1 {
		t.Fatalf("summary via third node says %d events, want 1", sum.EventsApplied)
	}

	// The fleet view adds up: every node reports the same ring, and the
	// deployments partition across the nodes.
	var ringVersion string
	seen := map[string]string{}
	for i, n := range nodes {
		fl, err := n.c.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fl.NodeID != n.id || len(fl.Members) != 3 {
			t.Fatalf("fleet view on %s: %+v", n.id, fl)
		}
		if i == 0 {
			ringVersion = fl.RingVersion
		} else if fl.RingVersion != ringVersion {
			t.Fatalf("ring version differs: %s vs %s", fl.RingVersion, ringVersion)
		}
		for _, id := range fl.LocalDeployments {
			if prev, dup := seen[id]; dup {
				t.Fatalf("deployment %s held by both %s and %s", id, prev, n.id)
			}
			seen[id] = n.id
			if owners[id] != n.id {
				t.Errorf("deployment %s held by %s but owned by %s", id, n.id, owners[id])
			}
		}
	}
	if len(seen) != len(reqs) {
		t.Fatalf("fleet holds %d deployments, want %d", len(seen), len(reqs))
	}
}

// TestFleetSingleHopGuard pins the loop guard: a request that already
// carries api.ForwardHeader, misses locally, and maps to a *different*
// node answers 503 with Retry-After instead of forwarding again; the
// same forwarded miss on the actual owner is an honest 404.
func TestFleetSingleHopGuard(t *testing.T) {
	nodes := []*fleetNode{startNode(t, "n1", Config{}), startNode(t, "n2", Config{})}
	members := join(t, nodes...)
	ring, err := fleet.New(members)
	if err != nil {
		t.Fatal(err)
	}
	// An id n1 does not own: forwarding it to n1 again would loop.
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("ghost-%d", i); ring.Owner(cand).ID == "n2" {
			id = cand
		}
	}

	req, err := http.NewRequest(http.MethodGet, nodes[0].ts.URL+"/v1/deployments/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.ForwardHeader, "n2")
	resp, err := nodes[0].ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forwarded miss: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("forwarded miss: no Retry-After header")
	}
	// Without the header the same miss is an honest 404: n1 forwards to
	// the owner n2, which reports the deployment missing.
	if _, err := nodes[0].c.Summary(context.Background(), id); err == nil {
		t.Fatal("summary of a missing deployment succeeded")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("missing deployment: %v, want a 404 APIError", err)
		}
	}
}

// TestFleetRebalanceBound pins the consistent-hashing payoff end to
// end: growing a 2-node fleet to 3 moves at most ceil(D/(N-1))+1 of D
// deployments — the new node's fair share plus slack — not a full
// reshuffle, and every moved deployment is owned by the new node.
func TestFleetRebalanceBound(t *testing.T) {
	ctx := context.Background()
	nodes := []*fleetNode{startNode(t, "n1", Config{}), startNode(t, "n2", Config{})}
	join(t, nodes...)

	const D = 12
	reqs := fleetCreate(D)
	for _, req := range reqs {
		if _, err := nodes[0].c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// Grow: one operator call to n1; propagation reaches n2 and n3.
	n3 := startNode(t, "n3", Config{})
	members := []api.Member{
		{ID: "n1", Addr: nodes[0].ts.URL},
		{ID: "n2", Addr: nodes[1].ts.URL},
		{ID: "n3", Addr: n3.ts.URL},
	}
	resp, err := nodes[0].c.UpdateMembership(ctx, members)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("membership update reported migration errors: %s", resp.Error)
	}
	for peer, status := range resp.Peers {
		if status != "ok" {
			t.Fatalf("propagation to %s: %s", peer, status)
		}
	}

	// Every node converged on the same ring.
	want, err := fleet.New([]fleet.Member{
		{ID: "n1", Addr: nodes[0].ts.URL},
		{ID: "n2", Addr: nodes[1].ts.URL},
		{ID: "n3", Addr: n3.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]*fleetNode{}, nodes...), n3)
	for _, n := range all {
		fl, err := n.c.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fl.RingVersion != ringVersionString(want) {
			t.Fatalf("node %s ring %s, want %s", n.id, fl.RingVersion, ringVersionString(want))
		}
	}

	// The bound: everything the new ring gives n3 moved there — and
	// nothing else moved anywhere.
	fl3, err := n3.c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	moved := len(fl3.LocalDeployments)
	limit := (D+1)/2 + 1 // ceil(D/(N-1)) + 1 with N=3
	if moved > limit {
		t.Fatalf("rebalance moved %d of %d deployments to the new node, bound is %d", moved, D, limit)
	}
	held := map[string]string{}
	for _, n := range all {
		fl, err := n.c.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fl.LocalDeployments {
			if prev, dup := held[id]; dup {
				t.Fatalf("deployment %s on both %s and %s after rebalance", id, prev, n.id)
			}
			held[id] = n.id
		}
	}
	if len(held) != D {
		t.Fatalf("fleet holds %d deployments after rebalance, want %d", len(held), D)
	}
	for _, req := range reqs {
		if owner := want.Owner(req.ID).ID; held[req.ID] != owner {
			t.Errorf("deployment %s held by %s, ring owner is %s", req.ID, held[req.ID], owner)
		}
		// And it still serves, from any node.
		if _, err := n3.c.Summary(ctx, req.ID); err != nil {
			t.Errorf("summary %s via n3 after rebalance: %v", req.ID, err)
		}
	}
}

// TestFleetWriteFenceDuringHandoff pins the mid-migration contract:
// once the hand-off checkpoint is cut, writes answer 503 + Retry-After
// (a retryable APIError), reads keep working, and after the hand-off
// the retried write lands on the new owner — nothing applied twice,
// nothing lost.
func TestFleetWriteFenceDuringHandoff(t *testing.T) {
	ctx := context.Background()
	n1 := startNode(t, "n1", Config{})
	n2 := startNode(t, "n2", Config{})
	// Single-node fleet first: everything lives on n1.
	join(t, n1)

	const D = 8
	reqs := fleetCreate(D)
	for _, req := range reqs {
		if _, err := n1.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	two, err := fleet.New([]fleet.Member{{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var moving string
	for _, req := range reqs {
		if two.Owner(req.ID).ID == "n2" {
			moving = req.ID
			break
		}
	}
	if moving == "" {
		t.Fatal("no deployment moves to n2 — pick different ids")
	}

	entered := make(chan string, D)
	release := make(chan struct{})
	n1.s.testHandoffBarrier = func(id string) {
		entered <- id
		<-release
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := n1.s.SetMembership(ctx, []fleet.Member{
			{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL},
		})
		done <- err
	}()
	first := <-entered // a hand-off is now mid-flight (fence up, blob cut, not shipped)

	_, werr := n1.c.Events(ctx, first, []api.EventRequest{{Kind: "leave", Node: 3}})
	var apiErr *client.APIError
	if !errors.As(werr, &apiErr) || !apiErr.Temporary() {
		t.Fatalf("write during hand-off: %v, want a temporary (503) APIError", werr)
	}
	if apiErr.RetryAfter < 1 {
		t.Fatalf("write during hand-off: RetryAfter = %d, want >= 1", apiErr.RetryAfter)
	}
	if _, rerr := n1.c.Summary(ctx, first); rerr != nil {
		t.Fatalf("read during hand-off: %v, want success", rerr)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	// n2 never adopted the two-node ring in this test (SetMembership was
	// called on n1 directly, not propagated), so hand it the ring now.
	if _, _, err := n2.s.SetMembership(ctx, []fleet.Member{
		{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL},
	}); err != nil {
		t.Fatal(err)
	}

	// The retried write lands (forwarded to the new owner) exactly once.
	resp, err := n1.c.Events(ctx, first, []api.EventRequest{{Kind: "leave", Node: 3}})
	if err != nil {
		t.Fatalf("retried write after hand-off: %v", err)
	}
	if resp.Applied != 1 || resp.Summary.EventsApplied != 1 {
		t.Fatalf("retried write: applied=%d total=%d, want 1/1 (the fenced attempt must not have applied)",
			resp.Applied, resp.Summary.EventsApplied)
	}
}

// TestFleetHandoffFailureKeepsServing pins the failure half of the
// hand-off matrix: when the destination is unreachable the deployment
// stays on the old owner, the fence drops, and both reads and writes
// keep working — the ring is adopted, the migration error is reported,
// and a later retry (destination back) moves only the stragglers.
func TestFleetHandoffFailureKeepsServing(t *testing.T) {
	ctx := context.Background()
	n1 := startNode(t, "n1", Config{})
	join(t, n1)
	reqs := fleetCreate(6)
	for _, req := range reqs {
		if _, err := n1.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// A dead destination: a closed listener's address.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close()

	members := []fleet.Member{{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: deadAddr}}
	ring, migrated, err := n1.s.SetMembership(ctx, members)
	if err == nil {
		t.Fatal("SetMembership with a dead destination reported no error")
	}
	if len(migrated) != 0 {
		t.Fatalf("migrated %v to a dead node", migrated)
	}
	if ring == nil || n1.s.currentRing() != ring {
		t.Fatal("ring not adopted despite failed migrations (membership is authoritative)")
	}

	// Everything still serves on n1 — reads and writes.
	for _, req := range reqs {
		if _, err := n1.c.Summary(ctx, req.ID); err != nil {
			t.Fatalf("summary %s after failed hand-off: %v", req.ID, err)
		}
	}
	if _, err := n1.c.Events(ctx, reqs[0].ID, []api.EventRequest{{Kind: "leave", Node: 2}}); err != nil {
		t.Fatalf("write after failed hand-off (fence must have dropped): %v", err)
	}

	// Destination comes up; the retry moves only the stragglers.
	n2 := startNode(t, "n2", Config{})
	members[1].Addr = n2.ts.URL
	if _, _, err := n2.s.SetMembership(ctx, members); err != nil {
		t.Fatal(err)
	}
	_, migrated, err = n1.s.SetMembership(ctx, members)
	if err != nil {
		t.Fatalf("retry rebalance: %v", err)
	}
	if len(migrated) == 0 {
		t.Fatal("retry rebalance moved nothing")
	}
	fl2, err := n2.c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl2.LocalDeployments) != len(migrated) {
		t.Fatalf("n2 holds %v, migration reported %v", fl2.LocalDeployments, migrated)
	}
}

// TestFleetStaleHandoffRejected is the crash drill for the one window
// after the receiver's ack: the old owner dies between the ack and its
// local drop, so its durable copy survives restart, and the boot-path
// membership retry re-ships that stale blob. The receiver must refuse
// it (generation not newer, 409) and keep every batch acked since the
// transfer; the restarted sender must drop the straggler instead of
// installing it over live state.
func TestFleetStaleHandoffRejected(t *testing.T) {
	ctx := context.Background()
	dir1, dir2 := t.TempDir(), t.TempDir()
	n1 := startNode(t, "n1", Config{StateDir: dir1})
	n2 := startNode(t, "n2", Config{StateDir: dir2})
	join(t, n1) // single-node fleet: everything lives on n1

	reqs := fleetCreate(6)
	for _, req := range reqs {
		if _, err := n1.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	members := []fleet.Member{{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL}}
	two, err := fleet.New(members)
	if err != nil {
		t.Fatal(err)
	}
	var moving string
	for _, req := range reqs {
		if two.Owner(req.ID).ID == "n2" {
			moving = req.ID
			break
		}
	}
	if moving == "" {
		t.Fatal("no deployment moves to n2 — pick different ids")
	}
	// The bytes a crashed old owner would still hold durably after the
	// receiver's ack: its last persisted snapshot of the deployment.
	stale, err := os.ReadFile(filepath.Join(dir1, moving+".khop"))
	if err != nil {
		t.Fatal(err)
	}

	// Rebalance: `moving` hands off to n2 at generation 1, then the new
	// owner acks a batch the stale copy knows nothing about.
	join(t, n1, n2)
	if _, err := n2.c.Events(ctx, moving, []api.EventRequest{{Kind: "leave", Node: 3}}); err != nil {
		t.Fatalf("write on the new owner after hand-off: %v", err)
	}
	// The receiver persisted the hand-off generation atomically.
	if _, err := os.Stat(filepath.Join(dir2, moving+".gen")); err != nil {
		t.Fatalf("hand-off generation not persisted: %v", err)
	}
	assertNoTempFiles(t, dir2)

	// kill -9 the old owner as if it died between the ack and dropLocal:
	// its durable copy of `moving` is still on disk. Restart both nodes
	// from their state dirs — the receiver must remember the hand-off
	// generation across its own restart too.
	n1.ts.Close()
	n2.ts.Close()
	if err := os.WriteFile(filepath.Join(dir1, moving+".khop"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	r1 := startNode(t, "n1", Config{StateDir: dir1})
	r2 := startNode(t, "n2", Config{StateDir: dir2})

	// The boot-path membership retry re-ships the stale copy. It must be
	// refused and dropped — not installed over the live one.
	members = []fleet.Member{{ID: "n1", Addr: r1.ts.URL}, {ID: "n2", Addr: r2.ts.URL}}
	if _, _, err := r2.s.SetMembership(ctx, members); err != nil {
		t.Fatal(err)
	}
	_, migrated, err := r1.s.SetMembership(ctx, members)
	if err != nil {
		t.Fatalf("membership retry with a stale straggler: %v (want the straggler dropped, not an error)", err)
	}
	found := false
	for _, id := range migrated {
		if id == moving {
			found = true
		}
	}
	if !found {
		t.Fatalf("migrated = %v, want it to include the reclaimed straggler %q", migrated, moving)
	}
	fl1, err := r1.c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fl1.LocalDeployments {
		if id == moving {
			t.Fatalf("restarted old owner still holds %q after the retry", moving)
		}
	}
	// The batch acked on the new owner survived the whole drill.
	sum, err := r2.c.Summary(ctx, moving)
	if err != nil {
		t.Fatal(err)
	}
	if sum.EventsApplied != 1 {
		t.Fatalf("live copy has %d events after stale hand-off retry, want 1 — acked state was overwritten", sum.EventsApplied)
	}
}

// TestFleetHandoffValidation pins the hand-off request gate: a
// standalone khopd refuses hand-offs outright, a fleet node refuses
// one without a valid generation header, and the generation decides
// replacement — not-newer is 409, strictly newer installs.
func TestFleetHandoffValidation(t *testing.T) {
	ctx := context.Background()

	// Standalone (no -node-id): the header must not bypass the
	// 409-on-exists guard or destroy state — the request is refused.
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	if _, err := c.Create(ctx, api.CreateRequest{ID: "prod", N: 40, AvgDegree: 5, Seed: 7, K: 2}); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Snapshot(ctx, "prod")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Handoff(ctx, "prod", blob, "ff", 99); err == nil {
		t.Fatal("standalone khopd accepted a hand-off")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
			t.Fatalf("hand-off to standalone: %v, want 403", err)
		}
	}
	if _, err := c.Summary(ctx, "prod"); err != nil {
		t.Fatalf("deployment damaged by refused hand-off: %v", err)
	}

	// Fleet node: the generation header is mandatory...
	n1 := startNode(t, "n1", Config{})
	req, err := http.NewRequest(http.MethodPost, n1.ts.URL+"/v1/deployments/hand/snapshot", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HandoffHeader, "ff")
	resp, err := n1.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hand-off without generation header: status %d, want 400", resp.StatusCode)
	}

	// ...and gates replacement: install at 2, refuse 2 and 1, accept 3.
	if _, err := n1.c.Handoff(ctx, "hand", blob, "ff", 2); err != nil {
		t.Fatalf("initial hand-off: %v", err)
	}
	for _, gen := range []uint64{2, 1} {
		if _, err := n1.c.Handoff(ctx, "hand", blob, "ff", gen); err == nil {
			t.Fatalf("hand-off at not-newer generation %d accepted", gen)
		} else {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
				t.Fatalf("hand-off at generation %d: %v, want 409", gen, err)
			}
		}
	}
	if _, err := n1.c.Handoff(ctx, "hand", blob, "ff", 3); err != nil {
		t.Fatalf("hand-off at newer generation: %v", err)
	}
}

// TestFleetCreateStragglerConflict pins routedCreate's local-first
// rule: a create for an id this node still holds (a straggler from a
// failed hand-off) answers the standalone 409 locally instead of
// forwarding — which would build a second, divergent copy on the owner
// while the straggler lives on.
func TestFleetCreateStragglerConflict(t *testing.T) {
	ctx := context.Background()
	n1 := startNode(t, "n1", Config{})
	join(t, n1)
	reqs := fleetCreate(8)
	for _, req := range reqs {
		if _, err := n1.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// A dead destination leaves stragglers on n1 under a two-node ring.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close()
	members := []fleet.Member{{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: deadAddr}}
	if _, _, err := n1.s.SetMembership(ctx, members); err == nil {
		t.Fatal("SetMembership with a dead destination reported no error")
	}
	ring, err := fleet.New(members)
	if err != nil {
		t.Fatal(err)
	}
	var straggler string
	for _, req := range reqs {
		if ring.Owner(req.ID).ID == "n2" {
			straggler = req.ID
			break
		}
	}
	if straggler == "" {
		t.Fatal("no straggler owned by n2 — pick different ids")
	}

	_, err = n1.c.Create(ctx, api.CreateRequest{ID: straggler, N: 40, AvgDegree: 5, Seed: 1, K: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("create over a straggler copy: %v, want the local 409", err)
	}
}

// TestDropLocalFencesStragglers pins the ghost-writer guard: dropLocal
// must raise the migrating fence on the struct it unregisters, so a
// writer that grabbed the pointer before the unregister answers 503
// instead of acking a batch into a copy that no longer exists.
func TestDropLocalFencesStragglers(t *testing.T) {
	n := startNode(t, "n1", Config{})
	if _, err := n.c.Create(context.Background(), api.CreateRequest{ID: "ghost", N: 40, AvgDegree: 5, Seed: 3, K: 2}); err != nil {
		t.Fatal(err)
	}
	n.s.mu.RLock()
	d := n.s.deps["ghost"]
	n.s.mu.RUnlock()
	if d == nil {
		t.Fatal("deployment not registered")
	}
	n.s.dropLocal("ghost")
	d.mu.RLock()
	fenced := d.migrating
	d.mu.RUnlock()
	if !fenced {
		t.Fatal("dropLocal left the dropped struct unfenced; a straggler writer could ack into a ghost")
	}
}

// TestFleetKillOwnerMidMigration is the crash drill for the hand-off
// ordering contract: the owner dies after cutting the outgoing
// checkpoint but before shipping it. On restart from its state dir the
// deployment must be there with every acked batch (byte-identical
// snapshot vs a single-node oracle), and re-applying the membership
// completes the interrupted rebalance.
func TestFleetKillOwnerMidMigration(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	n1 := startNode(t, "n1", Config{StateDir: dir})
	n2 := startNode(t, "n2", Config{StateDir: t.TempDir()})
	join(t, n1)

	// The oracle: a standalone khopd fed the identical workload.
	oracle := startNode(t, "oracle", Config{})

	reqs := fleetCreate(6)
	batches := [][]api.EventRequest{
		{{Kind: "leave", Node: 4}},
		{{Kind: "leave", Node: 11}, {Kind: "move", Node: 7, Neighbors: []int{1, 2, 3}}},
		{{Kind: "join", Node: 4, Neighbors: []int{5, 6}}},
	}
	for _, req := range reqs {
		if _, err := n1.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.c.Create(ctx, req); err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if _, err := n1.c.Events(ctx, req.ID, b); err != nil {
				t.Fatal(err)
			}
			if _, err := oracle.c.Events(ctx, req.ID, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	members := []fleet.Member{{ID: "n1", Addr: n1.ts.URL}, {ID: "n2", Addr: n2.ts.URL}}
	// The "kill -9": the rebalance goroutine dies between checkpoint and
	// ship, exactly like a process crash at that instruction. The fence
	// was up and the checkpoint durable; nothing was shipped.
	n1.s.testHandoffBarrier = func(string) { runtime.Goexit() }
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		n1.s.SetMembership(ctx, members)
	}()
	<-crashed
	n1.ts.Close() // the process is gone; no Save, no drain

	// Restart from the same state dir, standalone first: every
	// deployment intact, every acked batch present.
	r1 := startNode(t, "n1", Config{StateDir: dir})
	for _, req := range reqs {
		got, err := r1.c.Snapshot(ctx, req.ID)
		if err != nil {
			t.Fatalf("snapshot %s after crash restart: %v", req.ID, err)
		}
		want, err := oracle.c.Snapshot(ctx, req.ID)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("deployment %s: post-crash snapshot differs from oracle (%d vs %d bytes)", req.ID, len(got), len(want))
		}
	}

	// Re-apply the membership (the restarted node's new address): the
	// interrupted rebalance completes and the moved deployments still
	// match the oracle bit for bit, served through either node.
	members = []fleet.Member{{ID: "n1", Addr: r1.ts.URL}, {ID: "n2", Addr: n2.ts.URL}}
	if _, _, err := n2.s.SetMembership(ctx, members); err != nil {
		t.Fatal(err)
	}
	_, migrated, err := r1.s.SetMembership(ctx, members)
	if err != nil {
		t.Fatalf("completing interrupted rebalance: %v", err)
	}
	if len(migrated) == 0 {
		t.Fatal("interrupted rebalance completed with nothing to move — test is vacuous")
	}
	for _, req := range reqs {
		got, err := r1.c.Snapshot(ctx, req.ID) // forwarded when moved
		if err != nil {
			t.Fatalf("snapshot %s after completed rebalance: %v", req.ID, err)
		}
		want, err := oracle.c.Snapshot(ctx, req.ID)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("deployment %s: post-rebalance snapshot differs from oracle", req.ID)
		}
	}
}
