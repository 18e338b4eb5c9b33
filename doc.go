// Package khop is a library for building connected k-hop clusterings of
// ad hoc networks, reproducing Yang, Wu, and Cao, "Connected k-Hop
// Clustering in Ad Hoc Networks" (ICPP 2005).
//
// Given an undirected network graph, the library elects clusterheads in
// k-hop neighborhoods (lowest-ID or custom priorities; ID-, distance-, or
// size-based member affiliation), selects the neighbor clusterheads each
// head must connect to (all heads within 2k+1 hops, or only *adjacent*
// heads via the paper's A-NCR rule), and selects gateway nodes connecting
// them (one shortest path per pair via the mesh scheme, or the paper's
// LMST-based gateway algorithm). The result is a k-hop connected
// dominating set: clusterheads plus gateways.
//
// The single entry point is the Engine: construct one per graph and
// workload, then build — and rebuild, and incrementally maintain — the
// structure through it.
//
// Quick start:
//
//	net, _ := khop.RandomNetwork(khop.NetworkConfig{N: 100, AvgDegree: 6, Seed: 1})
//	engine, _ := khop.NewEngine(net.Graph(), khop.WithK(2), khop.WithAlgorithm(khop.ACLMST))
//	res, _ := engine.Build(context.Background())
//	fmt.Println(res.Heads, res.Gateways)
//
// Scaling a single build: WithParallel(n) shards every build phase —
// election rounds, neighbor selection, gateway path and local-MST
// fan-outs — across n workers (0 = all cores) with per-worker pooled
// scratch, producing a Result bitwise identical to a serial build:
//
//	engine, _ := khop.NewEngine(net.Graph(), khop.WithK(2), khop.WithParallel(8))
//
// At 10⁴–10⁵ nodes generate deployments with AllowDisconnected (the
// pipeline handles components; connected instances are vanishingly
// rare at that scale); `khopsim -fig scale` reports build wall time vs
// N for both paths.
//
// The five pipelines of the paper's evaluation — NC-Mesh, AC-Mesh,
// NC-LMST, AC-LMST (the headline algorithm), and the centralized G-MST
// lower bound — are selected with WithAlgorithm. WithMode picks how the
// build runs: Centralized (fast direct computation), Distributed (a
// genuine message-passing protocol, one goroutine per node, with the
// message complexity reported in Result.Cost), or MaxMin (Max-Min
// d-cluster formation instead of the iterative lowest-ID election).
// Build honors context cancellation in the election, flood, and
// gateway-selection hot loops, takes per-build option overrides, and
// pools its working memory so repeated builds allocate little beyond the
// results themselves.
//
// As the network churns, the same engine repairs the structure
// incrementally instead of rebuilding (§3.3 of the paper). The full
// event set is supported — Leave (a node switches off), Join (a
// departed node switches back on and affiliates with a head within k
// hops, or becomes one), and Move (an atomic leave+join that keeps the
// repair local) — and a batch of events coalesces its gateway repairs
// into a single selection re-run:
//
//	reports, _ := engine.Apply(ctx, khop.Leave(v), khop.Join(w, 3, 9), khop.Move(u, 17))
//	cur := engine.Result() // the repaired structure
//
// Each RepairReport carries the event kind, the repair scope, and the
// batch's coalescing stats. Join and Move add radio links, which may
// pull two heads within k hops of each other; Result.IndependentHeads
// turns false once that guarantee can no longer be made.
//
// Every Result is self-contained: NewRouter and NewBroadcastPlan build
// the hierarchical-routing and CDS-broadcast applications from it
// directly, whatever mode produced it. VerifyResult machine-checks the
// paper's invariants on any built or maintained Result — domination,
// independence, CDS composition and per-component connectivity, and
// every gateway path edge by edge — and is the recommended assertion
// in downstream tests (Result.Verify is the method form).
//
// Deployments outlive processes: Engine.CurrentGraph captures the
// maintained topology, internal/codec encodes (graph, Result, options)
// as a versioned checksummed snapshot, and RestoreEngine resumes
// queries and incremental maintenance from one — departed nodes stay
// departed — without a rebuild. cmd/khopd serves many such deployments
// over HTTP (build, churn, route, broadcast, snapshot) and persists
// them across restarts; cmd/khopsim -snapshot emits the same format.
//
// The runnable Example functions in this package's test files show
// tested usage of Engine.Build, Engine.Apply, VerifyResult, and
// NewRouter; ARCHITECTURE.md (repository root) maps the paper's
// sections onto the internal packages and states the determinism
// contract. See the examples directory for complete programs and
// cmd/khopsim for the paper's full evaluation harness. The harness runs every
// Monte-Carlo sweep on a deterministic worker pool (khopsim -parallel N,
// default all cores): each trial derives its randomness from (seed,
// configuration, trial index) and the adaptive stopping rule consumes
// results in trial-index order, so any worker count produces bitwise
// identical figures. khopsim -json emits those figures as a versioned
// machine-readable document that CI diffs against committed golden
// copies under testdata/golden.
package khop
