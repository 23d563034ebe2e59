// Package graph provides lightweight undirected-graph analysis of realized
// overlay topologies: the facade and the experiment harness check
// connectivity over the alive nodes and render the edges, and the test
// suite also checks degrees and diameters.
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

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

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

// Connected reports whether the whole graph is connected.
func (g *Graph) Connected() bool {
	all := make([]int, len(g.adj))
	for i := range all {
		all[i] = i
	}
	return g.ConnectedOver(all)
}

// BFSDepths returns the shortest-path distance (in hops) from src to every
// vertex; unreachable vertices get -1.
func (g *Graph) BFSDepths(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the longest shortest path in the graph; -1 if the graph
// is disconnected or empty. O(V·E) — intended for small test graphs.
func (g *Graph) Diameter() int {
	if len(g.adj) == 0 {
		return -1
	}
	max := 0
	for u := range g.adj {
		for _, d := range g.BFSDepths(u) {
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// DegreeStats returns min, max and mean vertex degree.
func (g *Graph) DegreeStats() (min, max int, mean float64) {
	if len(g.adj) == 0 {
		return 0, 0, 0
	}
	min = len(g.adj[0])
	var sum int
	for _, s := range g.adj {
		d := len(s)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		sum += d
	}
	return min, max, float64(sum) / float64(len(g.adj))
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph.Graph{v=%d e=%d}", g.N(), g.EdgeCount())
}
