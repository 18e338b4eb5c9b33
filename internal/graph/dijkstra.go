package graph

import "container/heap"

// ShortestPath returns the minimum-total-weight path between two
// vertices of a weighted graph, inclusive of endpoints, or nil when dst
// is unreachable. Ties are broken deterministically by preferring
// smaller predecessor IDs, mirroring Graph.ShortestPath.
func (w *WGraph) ShortestPath(src, dst int) []int {
	if !w.HasVertex(src) || !w.HasVertex(dst) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	const inf = int(^uint(0) >> 1)
	dist := make(map[int]int, len(w.adj))
	parent := make(map[int]int, len(w.adj))
	for v := range w.adj {
		dist[v] = inf
	}
	dist[src] = 0
	pq := &vertexHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(vertexDist)
		if top.d > dist[top.v] {
			continue // stale entry
		}
		if top.v == dst {
			break
		}
		for _, e := range w.adj[top.v] {
			nd := top.d + e.Weight
			if nd < dist[e.V] || (nd == dist[e.V] && top.v < parent[e.V]) {
				dist[e.V] = nd
				parent[e.V] = top.v
				heap.Push(pq, vertexDist{v: e.V, d: nd})
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	path := []int{dst}
	for cur := dst; cur != src; cur = parent[cur] {
		path = append(path, parent[cur])
	}
	reverse(path)
	return path
}

type vertexDist struct {
	v, d int
}

type vertexHeap []vertexDist

func (h vertexHeap) Len() int { return len(h) }
func (h vertexHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h vertexHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *vertexHeap) Push(x any) { *h = append(*h, x.(vertexDist)) }

func (h *vertexHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
