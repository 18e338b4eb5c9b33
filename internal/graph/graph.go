// Package graph implements the undirected-graph substrate used by the
// clustering and gateway-selection algorithms: adjacency storage, BFS and
// k-hop neighborhoods, hop-count shortest paths with deterministic ID tie
// breaking, connected components, a union-find structure, and the
// immutable weighted virtual graph (WGraph) with its Kruskal minimum
// spanning trees and Dijkstra shortest paths.
//
// Vertices are dense integer IDs 0..N-1, matching node IDs of the network
// simulator. All distances are hop counts unless stated otherwise.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph over vertices 0..N-1 stored as sorted
// adjacency lists. The zero value is an empty graph with no vertices; use
// New to create a graph with a fixed vertex count.
type Graph struct {
	adj [][]int
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// AddEdge inserts the undirected edge (u, v). Self-loops are rejected;
// duplicate edges are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	if g.HasEdge(u, v) {
		return
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
}

// RemoveEdge deletes the undirected edge (u, v) if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Neighbors returns the sorted adjacency list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.checkVertex(u)
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.checkVertex(u)
	return len(g.adj[u])
}

// AvgDegree returns the average vertex degree (0 for an empty graph).
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(len(g.adj))
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	for u, nb := range g.adj {
		c.adj[u] = append([]int(nil), nb...)
	}
	return c
}

// Edges returns every undirected edge exactly once as pairs (u, v) with
// u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u, nb := range g.adj {
		for _, v := range nb {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// RemoveVertexEdges removes all edges incident to u, effectively
// disconnecting it while keeping vertex numbering stable. This models a
// node switching off in the dynamic-maintenance experiments.
func (g *Graph) RemoveVertexEdges(u int) {
	g.checkVertex(u)
	for _, v := range g.adj[u] {
		g.adj[v] = removeSorted(g.adj[v], u)
	}
	g.adj[u] = nil
}

// InducedSubgraph returns a graph with the same vertex count as g that
// keeps only edges whose two endpoints are both in keep.
func (g *Graph) InducedSubgraph(keep []int) *Graph {
	in := make([]bool, len(g.adj))
	for _, v := range keep {
		g.checkVertex(v)
		in[v] = true
	}
	s := New(len(g.adj))
	for u, nb := range g.adj {
		if !in[u] {
			continue
		}
		for _, v := range nb {
			if u < v && in[v] {
				s.AddEdge(u, v)
			}
		}
	}
	return s
}

func (g *Graph) checkVertex(u int) {
	if u < 0 || u >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(g.adj)))
	}
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
