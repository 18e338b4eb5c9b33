package khop

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// propertyNetwork generates a connected test network or skips.
func propertyNetwork(t *testing.T, n int, degree float64, seed int64) *Network {
	t.Helper()
	net, err := RandomNetwork(NetworkConfig{N: n, AvgDegree: degree, Seed: seed})
	if err != nil {
		t.Skipf("no connected instance for N=%d D=%g seed=%d: %v", n, degree, seed, err)
	}
	return net
}

// TestVerifyResultPropertySweep is the property-based invariant sweep
// of the issue: random UDGs × {Centralized, Distributed, MaxMin} ×
// k ∈ {1,2,3} must all pass VerifyResult, for every algorithm the mode
// supports.
func TestVerifyResultPropertySweep(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{2, 11, 29} {
		net := propertyNetwork(t, 70, 7, seed)
		g := net.Graph()
		for _, mode := range []Mode{Centralized, Distributed, MaxMin} {
			algos := []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST}
			if mode != Centralized {
				algos = []Algorithm{ACLMST} // GMST invalid distributed; keep MaxMin cheap
			}
			for _, algo := range algos {
				for k := 1; k <= 3; k++ {
					t.Run(fmt.Sprintf("seed=%d/%v/%v/k=%d", seed, mode, algo, k), func(t *testing.T) {
						e, err := NewEngine(g, WithK(k), WithAlgorithm(algo), WithMode(mode))
						if err != nil {
							t.Fatal(err)
						}
						res, err := e.Build(ctx)
						if err != nil {
							t.Fatal(err)
						}
						if err := VerifyResult(g, res); err != nil {
							t.Fatal(err)
						}
						if want := mode != MaxMin; res.IndependentHeads != want {
							t.Fatalf("IndependentHeads=%v, want %v", res.IndependentHeads, want)
						}
					})
				}
			}
		}
	}
}

// TestParallelBuildMatchesSerial is the tentpole differential: across a
// seed sweep, every mode, algorithm, and k, a WithParallel build must
// produce a Result bitwise identical to the serial build — not close,
// identical (reflect.DeepEqual over the whole Result, GatewayPaths and
// all). The worker legs pin the sharded phases, which CI additionally
// runs under -race; each package's scalar oracle tests pin the batched
// traversals to the per-source walks they replaced.
func TestParallelBuildMatchesSerial(t *testing.T) {
	ctx := context.Background()
	type cfg struct {
		mode Mode
		algo Algorithm
		k    int
	}
	var cases []cfg
	for _, algo := range []Algorithm{NCMesh, ACMesh, NCLMST, ACLMST, GMST} {
		for k := 1; k <= 3; k++ {
			cases = append(cases, cfg{Centralized, algo, k})
		}
	}
	cases = append(cases,
		cfg{Distributed, ACLMST, 2},
		cfg{MaxMin, ACLMST, 1}, cfg{MaxMin, ACLMST, 2}, cfg{MaxMin, ACLMST, 3},
	)
	for _, seed := range []int64{3, 7, 19, 42} {
		net := propertyNetwork(t, 80, 7, seed)
		g := net.Graph()
		for _, tc := range cases {
			t.Run(fmt.Sprintf("seed=%d/%v/%v/k=%d", seed, tc.mode, tc.algo, tc.k), func(t *testing.T) {
				build := func(workers int) *Result {
					t.Helper()
					e, err := NewEngine(g, WithK(tc.k), WithAlgorithm(tc.algo),
						WithMode(tc.mode), WithParallel(workers))
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Build(ctx)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial := build(1)
				for _, workers := range []int{3, 8} {
					parallel := build(workers)
					if !reflect.DeepEqual(serial, parallel) {
						t.Fatalf("workers=%d: result differs from serial\nserial:   %+v\nparallel: %+v",
							workers, serial, parallel)
					}
				}
			})
		}
	}
}

// TestParallelBuildOverrideAndReuse covers the per-call override path
// and scratch-pool reuse: one engine, repeated builds alternating
// worker counts, always identical.
func TestParallelBuildOverrideAndReuse(t *testing.T) {
	ctx := context.Background()
	net := propertyNetwork(t, 80, 7, 5)
	e, err := NewEngine(net.Graph(), WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, workers := range []int{6, 1, 0} { // 0 = all cores
			res, err := e.Build(ctx, WithParallel(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, res) {
				t.Fatalf("round %d workers=%d drifted from serial", i, workers)
			}
		}
	}
}

// TestParallelBuildCancellation: a cancelled context aborts a parallel
// build with the context's error, with all shard goroutines joined
// (verified by -race and the goroutine-leak checks in CI).
func TestParallelBuildCancellation(t *testing.T) {
	net := propertyNetwork(t, 80, 7, 5)
	e, err := NewEngine(net.Graph(), WithK(2), WithParallel(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Build(ctx); err != context.Canceled {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}

// TestVerifyResultCatchesPathCorruption: the edge-by-edge path check
// must reject a path using a removed edge.
func TestVerifyResultCatchesPathCorruption(t *testing.T) {
	net := propertyNetwork(t, 60, 6, 13)
	g := net.Graph()
	res := mustBuild(t, g, WithK(2), WithAlgorithm(ACLMST))
	if len(res.GatewayPaths) == 0 {
		t.Skip("no gateway paths on this instance")
	}
	for link, path := range res.GatewayPaths {
		bad := *res
		bad.GatewayPaths = map[[2]int][]int{link: append([]int{path[0]}, path...)}
		if err := VerifyResult(g, &bad); err == nil {
			t.Fatal("self-loop-prefixed path passed VerifyResult")
		}
		break
	}
	// A dangling gateway (on no path) must be rejected too.
	if len(res.Gateways) > 0 {
		bad := *res
		bad.GatewayPaths = map[[2]int][]int{}
		if err := VerifyResult(g, &bad); err == nil {
			t.Fatal("gateways without paths passed VerifyResult")
		}
	}
}
