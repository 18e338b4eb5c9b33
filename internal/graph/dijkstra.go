package graph

// ShortestPath returns the minimum-total-weight path between two
// vertices of a weighted graph, inclusive of endpoints, or nil when dst
// is unreachable or either end is absent. Ties are broken
// deterministically by preferring smaller predecessor IDs, mirroring
// Graph.ShortestPath.
func (w *WGraph) ShortestPath(src, dst int) []int {
	s, t := w.rank(src), w.rank(dst)
	if s < 0 || t < 0 {
		return nil
	}
	if s == t {
		return []int{src}
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, len(w.ids))
	parent := make([]int, len(w.ids))
	for r := range dist {
		dist[r] = inf
	}
	dist[s] = 0
	pq := rankHeap{{r: s, d: 0}}
	for len(pq) > 0 {
		top := pq.pop()
		if top.d > dist[top.r] {
			continue // stale entry
		}
		if top.r == t {
			break
		}
		for _, a := range w.row(top.r) {
			v, nd := int(a.to), top.d+int(a.weight)
			if nd < dist[v] || (nd == dist[v] && top.r < parent[v]) {
				dist[v] = nd
				parent[v] = top.r
				pq.push(rankDist{r: v, d: nd})
			}
		}
	}
	if dist[t] == inf {
		return nil
	}
	path := []int{dst}
	for cur := t; cur != s; cur = parent[cur] {
		path = append(path, w.ids[parent[cur]])
	}
	reverse(path)
	return path
}

type rankDist struct {
	r, d int
}

func (a rankDist) before(b rankDist) bool {
	return a.d < b.d || (a.d == b.d && a.r < b.r)
}

// rankHeap is a binary min-heap ordered by (distance, rank).
type rankHeap []rankDist

func (h *rankHeap) push(x rankDist) {
	q := append(*h, x)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *rankHeap) pop() rankDist {
	q := *h
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}
