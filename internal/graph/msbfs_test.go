package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomGraph builds a seeded sparse random graph: n vertices, about
// n*deg/2 edges, plus a random spanning chain over a shuffled order so
// most instances are connected (some seeds leave extra components when
// extra=false — both regimes are wanted in the differential tests).
func msRandomGraph(rng *rand.Rand, n int, deg float64, chain bool) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	if chain {
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			g.AddEdge(perm[i-1], perm[i])
		}
	}
	m := int(float64(n) * deg / 2)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestFlattenMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 300} {
		g := msRandomGraph(rng, n, 4, n%2 == 0)
		f := Flatten(g)
		if f.N() != g.N() {
			t.Fatalf("n=%d: FlatGraph.N()=%d", n, f.N())
		}
		for v := 0; v < n; v++ {
			nbs := g.Neighbors(v)
			flat := f.Neighbors(v)
			if len(nbs) != len(flat) || f.Degree(v) != len(nbs) {
				t.Fatalf("n=%d v=%d: degree %d vs %d", n, v, len(flat), len(nbs))
			}
			for i := range nbs {
				if int(flat[i]) != nbs[i] {
					t.Fatalf("n=%d v=%d: neighbor order diverges at %d", n, v, i)
				}
			}
		}
	}
}

// checkMSBFSAgainstScalar cross-checks one batched sweep against the
// scalar BFS oracle: every (source, vertex, distance) triple reported by
// MSBFS must match BFS/EachWithin exactly, with no pair missing, none
// duplicated, and none beyond maxHops.
func checkMSBFSAgainstScalar(t *testing.T, g *Graph, f *FlatGraph, sources []int, maxHops int) {
	t.Helper()
	got := make([]map[int]int, len(sources)) // source idx -> v -> d
	for i := range got {
		got[i] = make(map[int]int)
	}
	f.MSBFSAll(NewMSScratch(), sources, maxHops, func(base, v, d int, mask uint64) bool {
		EachBit(mask, func(i int) {
			if _, dup := got[base+i][v]; dup {
				t.Fatalf("sources=%v maxHops=%d: duplicate report for source %d vertex %d", sources, maxHops, sources[base+i], v)
			}
			got[base+i][v] = d
		})
		return true
	})
	for i, src := range sources {
		var want map[int]int
		if maxHops < 0 {
			want = make(map[int]int)
			for v, d := range g.BFS(src) {
				if d != Unreachable {
					want[v] = d
				}
			}
		} else {
			want = within(g, src, maxHops)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("source %d (maxHops=%d): MSBFS reach diverges from scalar oracle:\n got %v\nwant %v", src, maxHops, got[i], want)
		}
	}
}

func TestMSBFSMatchesScalarBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(250)
		g := msRandomGraph(rng, n, 1+rng.Float64()*6, trial%3 != 0)
		f := Flatten(g)
		// Random distinct sources, sometimes more than one 64-bit batch.
		k := 1 + rng.Intn(min(n, 100))
		sources := rng.Perm(n)[:k]
		for _, maxHops := range []int{-1, 0, 1, 2, 1 + rng.Intn(6)} {
			checkMSBFSAgainstScalar(t, g, f, sources, maxHops)
		}
	}
}

func TestMSBFSAbortAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := msRandomGraph(rng, 200, 5, true)
	f := Flatten(g)
	s := NewMSScratch()
	// Abort a sweep mid-flight, then verify the next sweeps on the same
	// scratch are still exact (sparse clearing must not leak state).
	calls := 0
	f.MSBFS(s, []int{3, 9, 140}, -1, func(v, d int, mask uint64) bool {
		calls++
		return calls < 7
	})
	for trial := 0; trial < 5; trial++ {
		sources := rng.Perm(200)[:1+rng.Intn(64)]
		want := make(map[[2]int]int)
		for i, src := range sources {
			for v, d := range within(g, src, 3) {
				want[[2]int{i, v}] = d
			}
		}
		got := make(map[[2]int]int)
		f.MSBFS(s, sources, 3, func(v, d int, mask uint64) bool {
			EachBit(mask, func(i int) { got[[2]int{i, v}] = d })
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused scratch diverges from oracle", trial)
		}
	}
}

func TestMSBFSPanicsOnBadSources(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	f := Flatten(g)
	for name, sources := range map[string][]int{
		"duplicate":    {1, 1},
		"out-of-range": {5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s sources: no panic", name)
				}
			}()
			f.MSBFS(NewMSScratch(), sources, -1, func(int, int, uint64) bool { return true })
		}()
	}
}

func TestShortestPathsFromMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(200)
		g := msRandomGraph(rng, n, 1+rng.Float64()*5, trial%4 != 0)
		f := Flatten(g)
		src := rng.Intn(n)
		k := 1 + rng.Intn(min(n, 40))
		dsts := rng.Perm(n)[:k]
		dsts = append(dsts, src, dsts[0]) // self and duplicate destinations
		s := NewScratch()
		paths := f.ShortestPathsFrom(s, src, dsts)
		for i, dst := range dsts {
			want := g.ShortestPath(src, dst)
			if !reflect.DeepEqual(paths[i], want) {
				t.Fatalf("trial %d src=%d dst=%d:\n got %v\nwant %v (min-ID tie-break must match)", trial, src, dst, paths[i], want)
			}
		}
	}
}

func TestShortestPathsFromReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := msRandomGraph(rng, 150, 4, true)
	f := Flatten(g)
	s := NewScratch()
	for trial := 0; trial < 10; trial++ {
		src := rng.Intn(150)
		dsts := rng.Perm(150)[:10]
		paths := f.ShortestPathsFrom(s, src, dsts)
		for i, dst := range dsts {
			if want := g.ShortestPath(src, dst); !reflect.DeepEqual(paths[i], want) {
				t.Fatalf("trial %d: warm-scratch path diverges for (%d,%d)", trial, src, dst)
			}
		}
	}
}

func TestHopDistScratchMatchesHopDist(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(120)
		g := msRandomGraph(rng, n, 1+rng.Float64()*4, trial%3 != 0)
		s := NewScratch()
		for i := 0; i < 30; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := g.HopDistScratch(s, u, v), g.HopDist(u, v); got != want {
				t.Fatalf("trial %d (%d,%d): HopDistScratch=%d HopDist=%d", trial, u, v, got, want)
			}
		}
	}
}

// TestLocalityOrderIsPermutation: LocalityOrder must return a
// permutation of the source positions — every position exactly once —
// for connected graphs, multi-component graphs, and duplicate sources,
// and must be deterministic across calls.
func TestLocalityOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(300)
		g := msRandomGraph(rng, n, 1+rng.Float64()*5, trial%2 == 0)
		fg := Flatten(g)
		k := 1 + rng.Intn(n)
		sources := make([]int, k)
		for i := range sources {
			sources[i] = rng.Intn(n) // duplicates allowed
		}
		perm := fg.LocalityOrder(sources)
		if len(perm) != k {
			t.Fatalf("trial %d: |perm|=%d want %d", trial, len(perm), k)
		}
		seen := make([]bool, k)
		for _, p := range perm {
			if p < 0 || p >= k || seen[p] {
				t.Fatalf("trial %d: perm %v is not a permutation of 0..%d", trial, perm, k-1)
			}
			seen[p] = true
		}
		if again := fg.LocalityOrder(sources); !reflect.DeepEqual(perm, again) {
			t.Fatalf("trial %d: LocalityOrder not deterministic", trial)
		}
		// Both BlockOrder regimes must also be permutations.
		for _, maxHops := range []int{-1, 2} {
			bp := fg.BlockOrder(sources, maxHops)
			got := append([]int(nil), bp...)
			sort.Ints(got)
			for i, p := range got {
				if p != i {
					t.Fatalf("trial %d: BlockOrder(maxHops=%d) not a permutation: %v", trial, maxHops, bp)
				}
			}
		}
	}
}

// TestRankComputedOnFirstOrdering: Flatten leaves the DFS rank
// uncomputed, and ordering calls racing on a fresh shared snapshot all
// see the one rank the first of them computes (run under -race).
func TestRankComputedOnFirstOrdering(t *testing.T) {
	g := msRandomGraph(rand.New(rand.NewSource(5)), 500, 4, true)
	want := Flatten(g).RankOrder([]int{7, 400, 3, 250, 99})
	fg := Flatten(g)
	if fg.rank != nil {
		t.Fatal("Flatten computed the DFS rank")
	}
	var wg sync.WaitGroup
	perms := make([][]int, 4)
	for i := range perms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perms[i] = fg.RankOrder([]int{7, 400, 3, 250, 99})
		}()
	}
	wg.Wait()
	for i, p := range perms {
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("goroutine %d: RankOrder = %v, want %v", i, p, want)
		}
	}
}

// TestLocalityOrderGroupsComponents: sources from the same connected
// component must end up contiguous in the order (a grown ball never
// crosses a component boundary, and a component's sources are exhausted
// before the next seed starts).
func TestLocalityOrderGroupsComponents(t *testing.T) {
	g := New(10)
	// component A: 0-1-2-3, component B: 5-6-7, isolated: 9
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)
	fg := Flatten(g)
	sources := []int{7, 0, 9, 5, 2}
	perm := fg.LocalityOrder(sources)
	comp := map[int]int{0: 0, 2: 0, 5: 1, 7: 1, 9: 2}
	var order []int
	for _, p := range perm {
		order = append(order, comp[sources[p]])
	}
	for i := 1; i < len(order); i++ {
		for j := 0; j < i; j++ {
			if order[j] == order[i] && order[i-1] != order[i] {
				t.Fatalf("component %d split across the order: %v", order[i], order)
			}
		}
	}
}

// FuzzMSBFSDifferential feeds fuzzed edge lists and source picks through
// the batched sweep and the scalar oracle.
func FuzzMSBFSDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2), int8(3))
	f.Add([]byte{0, 1, 1, 2, 2, 0, 9, 9}, uint8(5), int8(-1))
	f.Fuzz(func(t *testing.T, edges []byte, nSrc uint8, hops int8) {
		const n = 24
		g := New(n)
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%n, int(edges[i+1])%n
			if u != v {
				g.AddEdge(u, v)
			}
		}
		fg := Flatten(g)
		k := 1 + int(nSrc)%n
		sources := rand.New(rand.NewSource(int64(nSrc))).Perm(n)[:k]
		maxHops := int(hops)
		if maxHops < 0 {
			maxHops = -1
		}
		checkMSBFSAgainstScalar(t, g, fg, sources, maxHops)
		if got, want := preorder(fg), pushAllPreorder(fg); !reflect.DeepEqual(got, want) {
			t.Fatalf("preorder ranks %v, push-all walk %v", got, want)
		}
		s := NewScratch()
		paths := fg.ShortestPathsFrom(s, sources[0], sources)
		for i, dst := range sources {
			if want := g.ShortestPath(sources[0], dst); !reflect.DeepEqual(paths[i], want) {
				t.Fatalf("path (%d,%d): got %v want %v", sources[0], dst, paths[i], want)
			}
		}
	})
}
