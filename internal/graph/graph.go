// Package graph holds realized overlay topologies as undirected graphs:
// the facade and the experiment harness check connectivity over the alive
// nodes (ConnectedOver), count the edges and render them (Neighbors).
//
// Graphs are built over dense vertex indices (the engine's node slots).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph over vertices 0..N-1 backed by adjacency
// sets. The zero value is unusable; create graphs with New.
type Graph struct {
	adj []map[int]struct{}
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &Graph{adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge (u, v). Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
}

// Neighbors returns the sorted neighbor list of u.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, s := range g.adj {
		total += len(s)
	}
	return total / 2
}

// ConnectedOver reports whether the sub-graph induced by the given vertices
// is connected (an empty or singleton set is connected).
func (g *Graph) ConnectedOver(vertices []int) bool {
	if len(vertices) <= 1 {
		return true
	}
	in := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	seen := map[int]bool{vertices[0]: true}
	queue := []int{vertices[0]}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(vertices)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph.Graph{v=%d e=%d}", g.N(), g.EdgeCount())
}
