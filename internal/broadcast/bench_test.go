package broadcast

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/udg"
)

// planSink keeps the benchmarked plan alive so the call is not elided.
var planSink *Plan

// BenchmarkNewPlan times one forwarding-set construction on a k=2
// AC-LMST clustering of an unfiltered (possibly disconnected) degree-10
// UDG — the plan khopd rebuilds after every churn batch. Run with
// -benchmem: the per-op allocation shows whether the cost follows the
// clusters or heads × N.
func BenchmarkNewPlan(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			net, err := udg.Generate(udg.Config{N: n, AvgDegree: 10}, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			c := cluster.Run(net.G, cluster.Options{K: 2})
			res := connect(b, net.G, c, gateway.ACLMST)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planSink = NewPlan(net.G, c, res)
			}
		})
	}
}
