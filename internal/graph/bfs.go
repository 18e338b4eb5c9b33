package graph

// Unreachable is the hop distance reported for vertices that cannot be
// reached from the BFS source.
const Unreachable = -1

// BFS computes hop distances from src to every vertex. Unreachable
// vertices get distance Unreachable.
func (g *Graph) BFS(src int) []int {
	g.checkVertex(src)
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopDist returns the hop distance between u and v, or Unreachable.
func (g *Graph) HopDist(u, v int) int {
	return g.BFS(u)[v]
}

// ShortestPath returns one shortest hop path from src to dst, inclusive
// of both endpoints, or nil if dst is unreachable.
//
// Ties are broken deterministically: every vertex on the path uses its
// smallest-ID neighbor that is one hop closer to src. This is exactly the
// parent a round-synchronous flood rooted at src produces (all copies of
// the flood arrive in the same round; the receiver keeps the smallest
// sender ID), so the centralized and distributed implementations select
// identical gateway paths. It also realizes the mesh scheme's "exactly
// one path by gateways between two neighboring clusterheads".
func (g *Graph) ShortestPath(src, dst int) []int {
	g.checkVertex(src)
	g.checkVertex(dst)
	if src == dst {
		return []int{src}
	}
	dist := g.BFS(src)
	if dist[dst] == Unreachable {
		return nil
	}
	path := []int{dst}
	for cur := dst; dist[cur] > 0; {
		next := -1
		for _, u := range g.adj[cur] { // sorted: first hit is min ID
			if dist[u] == dist[cur]-1 {
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

// Connected reports whether every vertex is reachable from vertex 0.
// The empty graph and the single-vertex graph are connected.
func (g *Graph) Connected() bool {
	if len(g.adj) <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// ConnectedAmong reports whether all vertices in set lie in one connected
// component of g. An empty or singleton set is connected.
func (g *Graph) ConnectedAmong(set []int) bool {
	if len(set) <= 1 {
		return true
	}
	dist := g.BFS(set[0])
	for _, v := range set[1:] {
		if dist[v] == Unreachable {
			return false
		}
	}
	return true
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
