// Benchmarks regenerating the paper's evaluation, one per table/figure.
//
// Each figure bench processes one random instance of that figure's
// workload per iteration and reports the paper's metric (mean CDS size,
// clusterhead count, protocol transmissions, …) via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the series the figures plot. Full sweeps over all node counts
// with the paper's ±1% @ 90% stopping rule are produced by cmd/khopsim;
// EXPERIMENTS.md records the paper-vs-measured comparison.
package khop

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gateway"
	"repro/internal/graph"
	"repro/internal/maxmin"
	"repro/internal/mobility"
	"repro/internal/ncr"
	"repro/internal/proto"
	"repro/internal/routing"
	"repro/internal/udg"
)

// benchInst is one connected clustered benchmark instance (the local
// equivalent of experiment.Instance; the experiment package now imports
// repro for the scale figure's VerifyResult gate, so this in-package
// test file cannot import it back without a cycle).
type benchInst struct {
	Net *udg.Network
	C   *cluster.Clustering
}

// newBenchInst generates one connected network and clusters it.
func newBenchInst(n int, deg float64, k int, aff cluster.Affiliation, rng *rand.Rand) (*benchInst, error) {
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: deg, RequireConnected: true}, rng)
	if err != nil {
		return nil, err
	}
	c := cluster.Run(net.G, cluster.Options{K: k, Affiliation: aff})
	return &benchInst{Net: net, C: c}, nil
}

// benchInstance generates one connected clustered instance, failing the
// benchmark on generator errors.
func benchInstance(b *testing.B, n int, deg float64, k int, rng *rand.Rand) *benchInst {
	b.Helper()
	inst, err := newBenchInst(n, deg, k, cluster.AffiliationID, rng)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// connect runs core.Connect for algo on the clustering c of g.
func connect(tb testing.TB, g *graph.Graph, c *cluster.Clustering, algo gateway.Algorithm) *gateway.Result {
	tb.Helper()
	out, err := core.Connect(context.Background(), g, graph.Flatten(g), c, algo, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return out.Gateway
}

// cdsFigureBench is the common harness for Figures 5 and 6: per
// iteration, one N=100 instance evaluated by all five algorithms; the
// reported metrics are the per-algorithm mean CDS sizes.
func cdsFigureBench(b *testing.B, degree float64, k int) {
	rng := rand.New(rand.NewSource(int64(k)*1000 + int64(degree)))
	sums := make([]float64, len(gateway.Algorithms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := benchInstance(b, 100, degree, k, rng)
		for ai, algo := range gateway.Algorithms {
			sums[ai] += float64(connect(b, inst.Net.G, inst.C, algo).CDSSize())
		}
	}
	b.StopTimer()
	for ai, algo := range gateway.Algorithms {
		b.ReportMetric(sums[ai]/float64(b.N), algo.String()+"_cds")
	}
}

// BenchmarkFig5 regenerates Figure 5 (sparse, D=6): CDS size per
// algorithm for k = 1..4 at N = 100.
func BenchmarkFig5(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { cdsFigureBench(b, 6, k) })
	}
}

// BenchmarkFig6 regenerates Figure 6 (dense, D=10).
func BenchmarkFig6(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { cdsFigureBench(b, 10, k) })
	}
}

// BenchmarkFig7 regenerates Figure 7: number of clusterheads (a) and CDS
// size (b) under AC-LMST for each k, D=6, N=100.
func BenchmarkFig7(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k) * 77))
			var headSum, cdsSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 6, k, rng)
				res := connect(b, inst.Net.G, inst.C, gateway.ACLMST)
				headSum += float64(inst.C.NumClusters())
				cdsSum += float64(res.CDSSize())
			}
			b.StopTimer()
			b.ReportMetric(headSum/float64(b.N), "clusterheads")
			b.ReportMetric(cdsSum/float64(b.N), "cds")
		})
	}
}

// BenchmarkFig4Example regenerates the Figure 4 scenario: one N=100,
// D=6, k=3 instance connected by each algorithm; metrics are gateway
// counts (the numbers quoted in the paper's §3.2 walkthrough).
func BenchmarkFig4Example(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	counts := make([]float64, len(gateway.Algorithms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := benchInstance(b, 100, 6, 3, rng)
		for ai, algo := range gateway.Algorithms {
			counts[ai] += float64(connect(b, inst.Net.G, inst.C, algo).NumGateways())
		}
	}
	b.StopTimer()
	for ai, algo := range gateway.Algorithms {
		b.ReportMetric(counts[ai]/float64(b.N), algo.String()+"_gateways")
	}
}

// BenchmarkOverhead regenerates the conclusion's future-work experiment:
// total radio transmissions of the full distributed AC-LMST protocol as
// k grows (N=100, D=6).
func BenchmarkOverhead(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k) * 31))
			var tx, rounds float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 6, k, rng)
				res, err := proto.Run(inst.Net.G, proto.Options{K: k, Rule: ncr.RuleANCR, UseLMST: true})
				if err != nil {
					b.Fatal(err)
				}
				tx += float64(res.Total.Transmissions)
				rounds += float64(res.Total.Rounds)
			}
			b.StopTimer()
			b.ReportMetric(tx/float64(b.N), "transmissions")
			b.ReportMetric(rounds/float64(b.N), "rounds")
		})
	}
}

// BenchmarkMaintenance regenerates the §3.3 dynamic-maintenance
// experiment: per iteration, one N=100 network loses half its nodes one
// by one; metrics are the share of free (member) departures and the mean
// re-clustered nodes per head departure.
func BenchmarkMaintenance(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k) * 13))
			var memberFrac, recluster float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 6, k, rng)
				out, err := core.Connect(context.Background(), inst.Net.G, graph.Flatten(inst.Net.G), inst.C, gateway.ACLMST, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				m := mobility.NewMaintainerFrom(inst.Net.G, out)
				members, heads, reclustered := 0, 0, 0
				for _, node := range rng.Perm(100)[:50] {
					reps, err := m.ApplyBatch(context.Background(), []mobility.Event{{Kind: mobility.EventLeave, Node: node}})
					if err != nil {
						b.Fatal(err)
					}
					rep := reps[0]
					switch rep.Role {
					case mobility.RoleMember:
						members++
					case mobility.RoleHead:
						heads++
						reclustered += rep.ReclusteredNodes
					}
				}
				memberFrac += float64(members) / 50
				if heads > 0 {
					recluster += float64(reclustered) / float64(heads)
				}
			}
			b.StopTimer()
			b.ReportMetric(memberFrac/float64(b.N), "member_frac")
			b.ReportMetric(recluster/float64(b.N), "reclustered_per_head")
		})
	}
}

// churnTrace pre-generates a deterministic, liveness-consistent batch
// sequence of Leave/Join/Move events over g: nodes depart, rejoin with
// their original (still-alive) radio links, and move onto random subsets
// of them.
func churnTrace(g *Graph, batches, batchSize int, rng *rand.Rand) [][]Event {
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	liveNbrs := func(v int) []int {
		var out []int
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				out = append(out, w)
			}
		}
		return out
	}
	var dead []int
	trace := make([][]Event, batches)
	for b := range trace {
		batch := make([]Event, 0, batchSize)
		for len(batch) < batchSize {
			switch {
			case len(dead) > 0 && rng.Intn(3) == 0:
				v := dead[len(dead)-1]
				dead = dead[:len(dead)-1]
				alive[v] = true
				batch = append(batch, Join(v, liveNbrs(v)...))
			case rng.Intn(2) == 0:
				v := rng.Intn(n)
				if !alive[v] {
					continue
				}
				nbrs := liveNbrs(v)
				rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
				batch = append(batch, Move(v, nbrs[:(len(nbrs)+1)/2]...))
			default:
				v := rng.Intn(n)
				if !alive[v] {
					continue
				}
				alive[v] = false
				dead = append(dead, v)
				batch = append(batch, Leave(v))
			}
		}
		trace[b] = batch
	}
	return trace
}

// BenchmarkApplyChurn measures the incremental-maintenance path: one
// Build plus a batched Leave/Join/Move trace through Engine.Apply per
// iteration (N=150, AC-LMST), against the rebuild-per-batch baseline.
// Compare ns/op to see what §3.3's local repair buys over rebuilding.
func BenchmarkApplyChurn(b *testing.B) {
	const batches, batchSize = 10, 5
	for _, k := range []int{1, 2} {
		net, err := RandomNetwork(NetworkConfig{N: 150, AvgDegree: 6, Seed: int64(41 + k)})
		if err != nil {
			b.Fatal(err)
		}
		g := net.Graph()
		trace := churnTrace(g, batches, batchSize, rand.New(rand.NewSource(int64(k)*43)))
		ctx := context.Background()
		b.Run(fmt.Sprintf("k=%d/incremental", k), func(b *testing.B) {
			e, err := NewEngine(g, WithK(k), WithAlgorithm(ACLMST))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Build(ctx); err != nil {
					b.Fatal(err)
				}
				for _, batch := range trace {
					if _, err := e.Apply(ctx, batch...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/rebuild", k), func(b *testing.B) {
			e, err := NewEngine(g, WithK(k), WithAlgorithm(ACLMST))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The rebuild baseline pays one full Build per batch (it
				// cannot reuse repairs; the graph here stays the full
				// network, an optimistic floor for its cost).
				for range trace {
					if _, err := e.Build(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationAffiliation compares the three member affiliation
// rules (§3 rules (1)–(3)) at N=100, D=6, k=2 under AC-LMST.
func BenchmarkAblationAffiliation(b *testing.B) {
	for _, aff := range []cluster.Affiliation{cluster.AffiliationID, cluster.AffiliationDistance, cluster.AffiliationSize} {
		b.Run(aff.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := newBenchInst(100, 6, 2, aff, rng)
				if err != nil {
					b.Fatal(err)
				}
				sum += float64(connect(b, inst.Net.G, inst.C, gateway.ACLMST).CDSSize())
			}
			b.StopTimer()
			b.ReportMetric(sum/float64(b.N), "cds")
		})
	}
}

// BenchmarkAblationKeepRule compares LMSTGA's union vs intersection
// link keeping on identical instances.
func BenchmarkAblationKeepRule(b *testing.B) {
	for _, keep := range []gateway.KeepRule{gateway.KeepUnion, gateway.KeepIntersection} {
		b.Run(keep.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 6, 2, rng)
				sel := ncr.ANCR(inst.Net.G, inst.C)
				sum += float64(gateway.LMST(inst.Net.G, inst.C, sel, gateway.ACLMST, keep).CDSSize())
			}
			b.StopTimer()
			b.ReportMetric(sum/float64(b.N), "cds")
		})
	}
}

// BenchmarkBroadcast regenerates the motivating-application experiment:
// transmissions of blind flooding vs CDS-confined broadcast (N=150,
// D=8, AC-LMST) per k.
func BenchmarkBroadcast(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k) * 17))
			var blindTx, cdsTx float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 150, 8, k, rng)
				res := connect(b, inst.Net.G, inst.C, gateway.ACLMST)
				bl, cds, _ := broadcast.Compare(inst.Net.G, inst.C, res, rng.Intn(150))
				if !cds.Covered {
					b.Fatal("CDS broadcast did not cover")
				}
				blindTx += float64(bl.Transmissions)
				cdsTx += float64(cds.Transmissions)
			}
			b.StopTimer()
			b.ReportMetric(blindTx/float64(b.N), "blind_tx")
			b.ReportMetric(cdsTx/float64(b.N), "cds_tx")
		})
	}
}

// BenchmarkRouting regenerates the hierarchical-routing experiment: mean
// path stretch and table footprint per k (N=100, D=7).
func BenchmarkRouting(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k) * 19))
			var stretchSum, tableSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 7, k, rng)
				res := connect(b, inst.Net.G, inst.C, gateway.ACLMST)
				router := routing.New(inst.Net.G, inst.C, res)
				var s float64
				for p := 0; p < 20; p++ {
					st, err := router.Stretch(rng.Intn(100), rng.Intn(100))
					if err != nil {
						b.Fatal(err)
					}
					s += st
				}
				stretchSum += s / 20
				_, hier := router.TableSizes()
				tableSum += float64(hier)
			}
			b.StopTimer()
			b.ReportMetric(stretchSum/float64(b.N), "stretch")
			b.ReportMetric(tableSum/float64(b.N), "table_entries")
		})
	}
}

// BenchmarkEnergyLifetime regenerates the §3.3 power-aware experiment:
// first-death epoch under static vs rotated clusterheads (N=100, D=7,
// k=2).
func BenchmarkEnergyLifetime(b *testing.B) {
	for _, policy := range []energy.Policy{energy.PolicyStatic, energy.PolicyRotate} {
		b.Run(policy.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(23))
			var sum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := benchInstance(b, 100, 7, 2, rng)
				lt, err := energy.Lifetime(inst.Net.G, 2, gateway.ACLMST, energy.DefaultModel(), policy, 500)
				if err != nil {
					b.Fatal(err)
				}
				sum += float64(lt)
			}
			b.StopTimer()
			b.ReportMetric(sum/float64(b.N), "first_death_epoch")
		})
	}
}

// BenchmarkClusteringComparison pits the paper's lowest-ID k-hop
// clustering against Max-Min d-cluster formation [2] on the same
// instances (N=100, D=6, k=d=2, AC-LMST on top of both).
func BenchmarkClusteringComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	var lowCDS, mmCDS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := benchInstance(b, 100, 6, 2, rng)
		lowCDS += float64(connect(b, inst.Net.G, inst.C, gateway.ACLMST).CDSSize())
		mmC := maxmin.Run(inst.Net.G, 2)
		mmCDS += float64(connect(b, inst.Net.G, mmC, gateway.ACLMST).CDSSize())
	}
	b.StopTimer()
	b.ReportMetric(lowCDS/float64(b.N), "lowest_id_cds")
	b.ReportMetric(mmCDS/float64(b.N), "maxmin_cds")
}

// --- micro-benchmarks of the building blocks ----------------------------

func BenchmarkUDGGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := udg.Generate(udg.Config{N: 200, AvgDegree: 6, RequireConnected: true}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRun(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			net, err := udg.Generate(udg.Config{N: 200, AvgDegree: 6, RequireConnected: true}, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.Run(net.G, cluster.Options{K: k})
			}
		})
	}
}

func BenchmarkGatewaySelection(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net, err := udg.Generate(udg.Config{N: 200, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: 2})
	for _, algo := range gateway.Algorithms {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				connect(b, net.G, c, algo)
			}
		})
	}
}

func BenchmarkDistributedProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net, err := udg.Generate(udg.Config{N: 100, AvgDegree: 6, RequireConnected: true}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(net.G, proto.Options{K: 2, Rule: ncr.RuleANCR, UseLMST: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicBuild(b *testing.B) {
	net, err := RandomNetwork(NetworkConfig{N: 150, AvgDegree: 6, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildOnce(g, WithK(2), WithAlgorithm(ACLMST)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildParallel measures the sharded single-build pipeline at
// production scale: one 10k- and one 50k-node grid-indexed deployment
// (D=10, no connectivity filter — at these sizes connected instances
// are vanishingly rare and the pipeline handles components), built
// serially and with WithParallel(8). On a multi-core machine the
// workers=8 legs should run ≥3× faster than workers=1 at N=50k; on
// fewer cores they chiefly prove the sharded path's overhead stays
// small. Every leg reuses its engine, so the per-worker scratch pools
// are warm — the steady-state rebuild regime.
func BenchmarkBuildParallel(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{10000, 50000} {
		net, err := RandomNetwork(NetworkConfig{N: n, AvgDegree: 10, Seed: 1, AllowDisconnected: true})
		if err != nil {
			b.Fatal(err)
		}
		g := net.Graph()
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("N=%dk/workers=%d", n/1000, workers), func(b *testing.B) {
				e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST), WithParallel(workers))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Build(ctx); err != nil { // warm the scratch pools
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Build(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineReuse quantifies the unified engine's buffer pooling:
// the same N=150, k=2, AC-LMST build repeated through one reused Engine
// (warm sync.Pool of per-build scratch) versus the per-call baseline
// that stands up fresh state — a throwaway Engine and cold buffers —
// every iteration. Compare allocs/op.
func BenchmarkEngineReuse(b *testing.B) {
	net, err := RandomNetwork(NetworkConfig{N: 150, AvgDegree: 6, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	g := net.Graph()
	ctx := context.Background()

	b.Run("reused-engine", func(b *testing.B) {
		e, err := NewEngine(g, WithK(2), WithAlgorithm(ACLMST))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Build(ctx); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Build(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh-per-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := buildOnce(g, WithK(2), WithAlgorithm(ACLMST)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildBatched measures serial builds on the CSR + multi-source
// batched BFS path at the same grid-indexed production-scale workload
// BenchmarkBuildParallel uses. Both gateway algorithms are measured:
// AC-LMST builds run A-NCR and local MSTs; G-MST runs the radius-2k+1
// NC sweeps and one MST over the NC virtual graph. The scale figure
// (`khopsim -fig scale`) reports serial and parallel builds up the full
// ladder to a million nodes.
func BenchmarkBuildBatched(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{10000, 50000} {
		net, err := RandomNetwork(NetworkConfig{N: n, AvgDegree: 10, Seed: 1, AllowDisconnected: true})
		if err != nil {
			b.Fatal(err)
		}
		g := net.Graph()
		for _, alg := range []Algorithm{ACLMST, GMST} {
			b.Run(fmt.Sprintf("N=%dk/%s", n/1000, alg), func(b *testing.B) {
				e, err := NewEngine(g, WithK(2), WithAlgorithm(alg))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Build(ctx); err != nil { // warm the scratch pools
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Build(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
