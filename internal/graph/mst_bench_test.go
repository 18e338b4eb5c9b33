package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// localMSTSink keeps the benchmarked tree alive so the call is not elided.
var localMSTSink []int

// BenchmarkLocalMST times one head's local MST on virtual graphs of
// 1k and 10k heads with the same mean virtual degree (a ring lattice:
// each head linked to the 4 nearest on either side, sparse IDs, weights
// 1–3). LMST reads only a closed neighborhood, so ns/op and allocs/op
// must stay flat across the two sizes; a whole-graph scan creeping back
// into LocalMST would make the 10k case about 10× slower.
func BenchmarkLocalMST(b *testing.B) {
	for _, h := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(7))
		var edges []WEdge
		for i := 0; i < h; i++ {
			for j := 1; j <= 4; j++ {
				edges = append(edges, WEdge{U: 3 * i, V: 3 * ((i + j) % h), Weight: 1 + rng.Intn(3)})
			}
		}
		w := NewWGraph(nil, edges)
		b.Run(fmt.Sprintf("H=%dk", h/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				localMSTSink = w.LocalMST(3 * (i % h))
			}
		})
	}
}
