package cluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/udg"
)

// BenchmarkElect times one serial election (declarations, offers and
// joins) on a 50k-node unit-disk deployment of mean degree 10 at k=2,
// on a shared CSR snapshot and a warm Scratch, as Engine.Build runs it.
func BenchmarkElect(b *testing.B) {
	net, err := udg.Generate(udg.Config{N: 50000, AvgDegree: 10}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := Options{K: 2, Flat: graph.Flatten(net.G)}
	s := NewScratch()
	if _, err := RunCtx(ctx, net.G, opt, s); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunCtx(ctx, net.G, opt, s); err != nil {
			b.Fatal(err)
		}
	}
}
