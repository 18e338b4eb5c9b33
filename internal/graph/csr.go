package graph

import (
	"sort"
	"sync"
)

// FlatGraph is a CSR (compressed sparse row) snapshot of a Graph: one
// offsets array plus one flat neighbor array, built once per build and
// shared read-only by every traversal of that build. The per-vertex
// neighbor lists keep the Graph's ascending order, so any walk that
// breaks ties by "first (= smallest-ID) neighbor" makes the same choice
// over a FlatGraph as over the adjacency lists it was flattened from.
//
// A FlatGraph does not track later mutations of its source Graph;
// callers on the churn path (incremental repairs) keep using the
// adjacency-list traversals and re-flatten only on full rebuilds.
// Vertex IDs are stored as int32 (the million-node ladder is far below
// the 2^31 limit), halving the memory traffic of the hot sweeps.
type FlatGraph struct {
	off []int32
	nbr []int32
	// rank[v] is v's DFS-preorder discovery index (min-ID neighbor
	// first, components in ascending root order), a cheap graph-locality
	// key: vertices with nearby ranks are nearby in the graph. RankOrder,
	// LocalityOrder and BlockOrder use it to pack spatially coherent
	// sources into the same 64-wide MSBFS block. It is computed on the
	// first of those calls, not by Flatten, so a build whose stages never
	// block by locality (AC-LMST, churn refreshes) never pays for it;
	// rankOnce makes that first call safe on a snapshot shared by
	// concurrent workers.
	rankOnce sync.Once
	rank     []int32
}

// Flatten builds the CSR snapshot of g. O(V+E).
func Flatten(g *Graph) *FlatGraph {
	n := len(g.adj)
	f := &FlatGraph{off: make([]int32, n+1)}
	total := 0
	for v, adj := range g.adj {
		f.off[v] = int32(total)
		total += len(adj)
	}
	f.off[n] = int32(total)
	f.nbr = make([]int32, total)
	i := 0
	for _, adj := range g.adj {
		for _, w := range adj {
			f.nbr[i] = int32(w)
			i++
		}
	}
	return f
}

// ranks returns the DFS-preorder rank, computing it on first use.
func (f *FlatGraph) ranks() []int32 {
	f.rankOnce.Do(func() { f.rank = preorder(f) })
	return f.rank
}

// preorder computes the DFS discovery rank of every vertex: an
// iterative depth-first walk that descends into the smallest-ID
// unvisited neighbor first and starts a new tree at each unvisited
// vertex in ascending ID order. The walk is deterministic, O(V+E), and
// its discovery sequence meanders through the graph one edge at a time,
// so consecutive ranks are graph-adjacent except at backtrack jumps —
// exactly the locality key batched BFS wants. Its stack holds one
// (vertex, next-neighbor) frame per vertex on the current DFS path, so
// it stays within O(V) however dense the graph.
func preorder(f *FlatGraph) []int32 {
	n := f.N()
	rank := make([]int32, n)
	for v := range rank {
		rank[v] = -1
	}
	var next int32
	type frame struct{ v, at int32 } // at: offset of v's next neighbor in nbr
	var stack []frame
	for s := 0; s < n; s++ {
		if rank[s] >= 0 {
			continue
		}
		rank[s] = next
		next++
		stack = append(stack, frame{int32(s), f.off[s]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.at == f.off[top.v+1] {
				stack = stack[:len(stack)-1]
				continue
			}
			w := f.nbr[top.at]
			top.at++
			if rank[w] < 0 {
				rank[w] = next
				next++
				stack = append(stack, frame{w, f.off[w]})
			}
		}
	}
	return rank
}

// RankOrder returns a permutation of [0, len(sources)) that sorts the
// sources by DFS-preorder rank (ties by position). It is the cheapest
// locality blocking — O(s log s) plus the snapshot's one-off O(V+E)
// rank pass, no per-call graph walk — and the right choice when the
// sources are dense. LocalityOrder upgrades it with ball-growing for
// sparse sets feeding deep sweeps.
func (f *FlatGraph) RankOrder(sources []int) []int {
	if len(sources) == 0 {
		return nil
	}
	rank := f.ranks()
	seeds := make([]int, len(sources))
	for i := range seeds {
		seeds[i] = i
	}
	sort.Slice(seeds, func(a, b int) bool {
		ra, rb := rank[sources[seeds[a]]], rank[sources[seeds[b]]]
		if ra != rb {
			return ra < rb
		}
		return seeds[a] < seeds[b]
	})
	return seeds
}

// BlockOrder picks the blocking permutation for a batched sweep of the
// given radius (maxHops < 0 means unbounded). Unbounded sweeps cost
// enough per block that LocalityOrder's ball-growing always pays for
// itself; radius-bounded sweeps over dense source sets (one source per
// handful of vertices) get the rank sort instead — at that density any
// 64 rank-consecutive sources already sit in a compact region, and the
// ordering walk would cost whole-graph passes comparable to the shallow
// sweeps it feeds.
func (f *FlatGraph) BlockOrder(sources []int, maxHops int) []int {
	if maxHops >= 0 && len(sources)*16 >= f.N() {
		return f.RankOrder(sources)
	}
	return f.LocalityOrder(sources)
}

// LocalityOrder returns a permutation p of [0, len(sources)) that packs
// graph-nearby sources into the same aligned 64-wide chunk: repeatedly
// take the unassigned source with the smallest DFS rank as a seed, grow
// a BFS ball around it until 64 unassigned sources are swallowed (or
// its component runs out), and emit them in discovery order. Chunking
// the permutation into 64-wide MSBFS blocks therefore yields one tight
// graph-metric ball per block, which is what makes batching pay off: a
// block's sweep cost is governed by how many distinct levels each
// covered vertex gains bits at — roughly the diameter of the block's
// source region — so 64 sources from one small ball share almost every
// frontier expansion, while 64 sources scattered across the deployment
// (e.g. head IDs on a geometric graph, which carry no spatial
// information) share none and cost as much as 64 scalar walks.
//
// The permutation is deterministic (BFS discovery order over ascending
// adjacency, seeds in DFS-rank order, co-located sources tie-break by
// position), and per-source results of the batched traversals are
// independent of block composition, so consumers may reorder freely
// without changing any output. Cost is one bounded region walk per
// block, O(V+E) in total for sources spread over the whole graph.
func (f *FlatGraph) LocalityOrder(sources []int) []int {
	if len(sources) == 0 {
		return nil
	}
	n := f.N()
	seeds := f.RankOrder(sources)
	// Intrusive index of the sources: first[v] is the lowest source
	// position at vertex v (-1 if none), nextDup chains co-located
	// positions in ascending order — one array load per visited vertex
	// where a map would hash every BFS step.
	first := make([]int32, n)
	for v := range first {
		first[v] = -1
	}
	nextDup := make([]int32, len(sources))
	for i := len(sources) - 1; i >= 0; i-- {
		nextDup[i] = first[sources[i]]
		first[sources[i]] = int32(i)
	}
	perm := make([]int, 0, len(sources))
	assigned := make([]bool, len(sources))
	visited := make([]bool, n)
	queue := make([]int32, 0, 256)
	// A ball whose neighborhood is already spent (stragglers left behind
	// earlier balls) would otherwise scour the whole graph for its last
	// few sources; the per-ball visit budget — a few times the expected
	// region of 64 sources — closes it short instead. Short balls only
	// misalign the consumer's chunk boundaries slightly; they keep the
	// total walk near one pass over the graph. The aggregate pool backs
	// that up: ordering must stay cheaper than the sweeps it feeds, so
	// once the balls have visited ~2n vertices the remaining sources are
	// emitted in rank order directly (the same blocking the dense path
	// uses).
	budget := 4 * (1 + 64*n/len(sources))
	pool := 2 * n
	for _, sp := range seeds {
		if assigned[sp] {
			continue
		}
		if pool <= 0 {
			assigned[sp] = true
			perm = append(perm, sp)
			continue
		}
		count := 0
		queue = queue[:0]
		root := int32(sources[sp])
		visited[root] = true
		queue = append(queue, root)
		for qi := 0; qi < len(queue) && qi < budget && count < 64; qi++ {
			pool--
			v := queue[qi]
			for p := first[v]; p >= 0; p = nextDup[p] {
				if !assigned[p] {
					assigned[p] = true
					perm = append(perm, int(p))
					if count++; count == 64 {
						break
					}
				}
			}
			if count == 64 {
				break
			}
			for _, w := range f.nbr[f.off[v]:f.off[v+1]] {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			visited[v] = false
		}
	}
	return perm
}

// N returns the number of vertices.
func (f *FlatGraph) N() int { return len(f.off) - 1 }

// Neighbors returns u's neighbors in ascending order. The slice aliases
// the CSR arrays; callers must not modify it.
func (f *FlatGraph) Neighbors(u int) []int32 { return f.nbr[f.off[u]:f.off[u+1]] }

// Degree returns the number of neighbors of u.
func (f *FlatGraph) Degree(u int) int { return int(f.off[u+1] - f.off[u]) }

// ShortestPathsFrom computes the deterministic shortest path from src to
// every destination in dsts, sharing a single early-exiting BFS: the
// walk stops as soon as the last destination is discovered, and each
// path is recovered by the same min-ID back-walk as ShortestPath /
// ShortestPathScratch (every vertex uses its smallest-ID neighbor one
// hop closer to src), so the returned paths are element-for-element
// identical to one ShortestPathScratch call per pair. Unreachable
// destinations get a nil path. Only the returned paths are freshly
// allocated.
//
// The back-walk on a partial BFS is sound for the same reason as in
// ShortestPathScratch: when the last destination is found at level d,
// every vertex at levels < d has already been visited with its true
// distance, and each back-walk only inspects vertices strictly closer
// to src than the destination it started from.
func (f *FlatGraph) ShortestPathsFrom(s *Scratch, src int, dsts []int) [][]int {
	n := f.N()
	s = orTemp(s)
	out := make([][]int, len(dsts))
	s.beginTargets(n)
	remaining := 0
	for i, dst := range dsts {
		if dst == src {
			out[i] = []int{src}
			continue
		}
		if s.mark2[dst] != s.epoch2 {
			s.mark2[dst] = s.epoch2
			remaining++
		}
	}
	s.begin(n)
	s.visit(src, 0)
	for i := 0; i < len(s.queue) && remaining > 0; i++ {
		u := s.queue[i]
		du := s.dist[u]
		for _, w := range f.nbr[f.off[u]:f.off[u+1]] {
			v := int(w)
			if s.seen(v) {
				continue
			}
			s.visit(v, du+1)
			if s.mark2[v] == s.epoch2 {
				s.mark2[v] = 0 // consume: duplicates count once
				remaining--
				if remaining == 0 {
					break
				}
			}
		}
	}
	for i, dst := range dsts {
		if out[i] != nil || !s.seen(dst) {
			continue
		}
		path := []int{dst}
		for cur := dst; s.dist[cur] > 0; {
			next := -1
			for _, w := range f.nbr[f.off[cur]:f.off[cur+1]] { // ascending: first hit is min ID
				u := int(w)
				if s.seen(u) && s.dist[u] == s.dist[cur]-1 {
					next = u
					break
				}
			}
			path = append(path, next)
			cur = next
		}
		reverse(path)
		out[i] = path
	}
	return out
}
