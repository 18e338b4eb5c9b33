package routing

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/udg"
)

// routeSink keeps the benchmarked route alive so the call is not elided.
var routeSink []int

// BenchmarkRouterRoute times one hierarchical route query between random
// nodes of a k=2 AC-LMST clustering of an unfiltered degree-10 UDG at
// N=20000 — khopd's read path. Pairs whose clusters the backbone cannot
// connect return an error and are timed like any other query.
func BenchmarkRouterRoute(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	net, err := udg.Generate(udg.Config{N: n, AvgDegree: 10}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c := cluster.Run(net.G, cluster.Options{K: 2})
	r := New(net.G, c, connect(b, net.G, c, gateway.ACLMST))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		routeSink, _ = r.Route(p[0], p[1])
	}
}
