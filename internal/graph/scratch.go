package graph

// Scratch holds reusable buffers for the BFS-heavy loops of the
// clustering and gateway pipelines. A warm Scratch lets repeated builds
// on the same (or same-sized) graph run their traversals without
// allocating: visited sets are epoch-stamped instead of cleared, and the
// distance and queue arrays are grown once and reused.
//
// A Scratch supports one traversal at a time — the buffers of a walk are
// invalidated by the next call that takes the same Scratch — and is not
// safe for concurrent use. Engines pool Scratches (one per in-flight
// build) rather than share them.
type Scratch struct {
	mark  []int // epoch stamp per vertex; mark[v] == epoch ⇔ v visited
	epoch int
	dist  []int // hop distance per visited vertex
	queue []int // BFS queue, reused across walks
	// Second epoch-stamped marker, for walks that also carry a target
	// set (ShortestPathsFrom) independent of the visited set.
	mark2  []int
	epoch2 int
	// Batched multi-source buffers, created on first MS() call so
	// scalar-only users never pay for them.
	ms *MSScratch
}

// MS returns the scratch's multi-source BFS buffers, creating them on
// first use. They share the Scratch's ownership rules: one traversal at
// a time, not safe for concurrent use.
func (s *Scratch) MS() *MSScratch {
	if s.ms == nil {
		s.ms = NewMSScratch()
	}
	return s.ms
}

// beginTargets starts a new target set over n vertices: mark2[v] ==
// epoch2 ⇔ v is an (unconsumed) target.
func (s *Scratch) beginTargets(n int) {
	if len(s.mark2) < n {
		s.mark2 = make([]int, n)
		s.epoch2 = 0
	}
	s.epoch2++
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// begin starts a new traversal over n vertices: grows the buffers if
// needed and advances the epoch so all previous marks become stale.
func (s *Scratch) begin(n int) {
	if len(s.mark) < n {
		s.mark = make([]int, n)
		s.dist = make([]int, n)
		s.epoch = 0
	}
	s.epoch++
	s.queue = s.queue[:0]
}

func (s *Scratch) visit(v, d int) {
	s.mark[v] = s.epoch
	s.dist[v] = d
	s.queue = append(s.queue, v)
}

func (s *Scratch) seen(v int) bool { return s.mark[v] == s.epoch }

// orTemp returns s, or a fresh throwaway Scratch when s is nil, so every
// scratch-aware traversal also works without a pooled buffer.
func orTemp(s *Scratch) *Scratch {
	if s == nil {
		return NewScratch()
	}
	return s
}

// EachWithin visits every vertex within maxHops of src — src first at
// distance 0, then the rest in BFS order — calling fn(v, d) for each.
// Returning false from fn stops the walk early. With a warm Scratch the
// walk allocates nothing.
func (g *Graph) EachWithin(s *Scratch, src, maxHops int, fn func(v, d int) bool) {
	g.checkVertex(src)
	s = orTemp(s)
	s.begin(len(g.adj))
	s.visit(src, 0)
	if !fn(src, 0) {
		return
	}
	for i := 0; i < len(s.queue); i++ {
		u := s.queue[i]
		du := s.dist[u]
		if du == maxHops {
			continue
		}
		for _, v := range g.adj[u] {
			if !s.seen(v) {
				s.visit(v, du+1)
				if !fn(v, du+1) {
					return
				}
			}
		}
	}
}

// HopDistScratch is HopDist with reusable buffers and an early exit:
// the BFS stops the moment v is discovered instead of computing the
// distance to every vertex, and a warm Scratch allocates nothing. The
// returned distance is identical to HopDist's (BFS discovers vertices
// in nondecreasing distance order).
func (g *Graph) HopDistScratch(s *Scratch, u, v int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		return 0
	}
	s = orTemp(s)
	s.begin(len(g.adj))
	s.visit(u, 0)
	for i := 0; i < len(s.queue); i++ {
		x := s.queue[i]
		dx := s.dist[x]
		for _, w := range g.adj[x] {
			if s.seen(w) {
				continue
			}
			if w == v {
				return dx + 1
			}
			s.visit(w, dx+1)
		}
	}
	return Unreachable
}

// ShortestPathScratch is ShortestPath with the internal BFS running in
// s's buffers; only the returned path is freshly allocated (it is
// retained by callers in gateway-path maps). The tie-breaking rule is
// identical: every vertex uses its smallest-ID neighbor one hop closer
// to src.
func (g *Graph) ShortestPathScratch(s *Scratch, src, dst int) []int {
	g.checkVertex(src)
	g.checkVertex(dst)
	if src == dst {
		return []int{src}
	}
	s = orTemp(s)
	s.begin(len(g.adj))
	s.visit(src, 0)
	found := false
	for i := 0; i < len(s.queue) && !found; i++ {
		u := s.queue[i]
		for _, v := range g.adj[u] {
			if !s.seen(v) {
				s.visit(v, s.dist[u]+1)
				if v == dst {
					// Every vertex closer to src than dst is already
					// visited (BFS explores by layers), so the back-walk
					// below has all the distances it needs.
					found = true
					break
				}
			}
		}
	}
	if !found {
		return nil
	}
	path := []int{dst}
	for cur := dst; s.dist[cur] > 0; {
		next := -1
		for _, u := range g.adj[cur] { // sorted: first hit is min ID
			if s.seen(u) && s.dist[u] == s.dist[cur]-1 {
				next = u
				break
			}
		}
		path = append(path, next)
		cur = next
	}
	reverse(path)
	return path
}
