package cluster

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// FuzzElection checks RunCtx against the scalar reference election
// (declares walks, collectOffers walks and the sort-based join) on
// arbitrary small graphs. The bytes decode into n ≤ 64 nodes, k ∈ 1..4,
// a priority (HighestEnergy over energies with many ties), an
// affiliation rule, 1 or 3 workers and, from the remaining byte pairs,
// an edge list, which may leave nodes isolated or the graph
// disconnected.
func FuzzElection(f *testing.F) {
	f.Add([]byte{8, 1, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Add([]byte{12, 2, 1, 2, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 6, 7, 8, 9})
	f.Add([]byte{40, 3, 2, 1, 1, 3, 0, 2, 1, 0, 3, 9, 17, 17, 33, 5, 9, 21, 30, 30, 2})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%64
		opt := Options{K: 1 + next()%4}
		prio := next() % 3
		opt.Affiliation = Affiliation(next() % 3)
		if next()%2 == 1 {
			opt.Pool = partition.NewPool(3)
		}
		var energy []float64
		if prio == 2 {
			energy = make([]float64, n)
			for v := range energy {
				energy[v] = float64(next() % 4)
			}
		}
		g := graph.New(n)
		for len(data) >= 2 {
			if u, v := next()%n, next()%n; u != v {
				g.AddEdge(u, v)
			}
		}
		switch prio {
		case 1:
			opt.Priority = NewHighestDegree(g)
		case 2:
			opt.Priority = NewHighestEnergy(energy)
		}
		opt.Flat = graph.Flatten(g)
		got, err := RunCtx(context.Background(), g, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceElection(g, opt)
		if !slices.Equal(got.Head, want.Head) || !slices.Equal(got.DistToHead, want.DistToHead) ||
			!slices.Equal(got.Heads, want.Heads) || got.Rounds != want.Rounds {
			t.Fatalf("n=%d k=%d %T %s workers=%d: RunCtx heads %v (%d rounds), reference %v (%d rounds)",
				n, opt.K, opt.Priority, opt.Affiliation, opt.Pool.Workers(), got.Heads, got.Rounds, want.Heads, want.Rounds)
		}
	})
}
