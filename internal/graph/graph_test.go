package graph

import (
	"testing"
	"testing/quick"
)

// ringGraph builds a cycle of n vertices.
func ringGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// The helpers below derive degrees, connectivity and BFS distances from
// Neighbors alone, so the assertions on them check the adjacency the
// package keeps.

func degree(g *Graph, u int) int { return len(g.Neighbors(u)) }

func connected(g *Graph) bool {
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return g.ConnectedOver(all)
}

// bfsDepths returns the hop distance from src to every vertex (-1 when
// unreachable).
func bfsDepths(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Neighbors(queue[0]) {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// diameter is the longest shortest path; -1 when g is disconnected.
func diameter(g *Graph) int {
	max := 0
	for u := 0; u < g.N(); u++ {
		for _, d := range bfsDepths(g, u) {
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

func TestAddEdgeIgnoresSelfLoop(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1)
	if g.EdgeCount() != 0 {
		t.Fatalf("EdgeCount = %d, want 0", g.EdgeCount())
	}
}

func TestEdgeSymmetry(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2)
	if a, b := g.Neighbors(0), g.Neighbors(2); len(a) != 1 || a[0] != 2 || len(b) != 1 || b[0] != 0 {
		t.Fatal("edges must be undirected")
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestRingProperties(t *testing.T) {
	g := ringGraph(10)
	if !connected(g) {
		t.Fatal("ring must be connected")
	}
	if d := diameter(g); d != 5 {
		t.Fatalf("ring-10 diameter = %d, want 5", d)
	}
	for v := 0; v < g.N(); v++ {
		if d := degree(g, v); d != 2 {
			t.Fatalf("ring degree of %d = %d, want 2", v, d)
		}
	}
}

func TestCliqueProperties(t *testing.T) {
	n := 6
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	if d := diameter(g); d != 1 {
		t.Fatalf("clique diameter = %d, want 1", d)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if connected(g) {
		t.Fatal("graph with two components is not connected")
	}
	if d := diameter(g); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestConnectedOverSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	if !g.ConnectedOver([]int{0, 1, 2}) {
		t.Fatal("{0,1,2} should be connected")
	}
	if g.ConnectedOver([]int{0, 1, 3}) {
		t.Fatal("{0,1,3} should not be connected")
	}
	if !g.ConnectedOver(nil) || !g.ConnectedOver([]int{2}) {
		t.Fatal("empty and singleton sets are trivially connected")
	}
}

func TestBFSDepths(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	d := bfsDepths(g, 0)
	want := []int{0, 1, 2, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("depths = %v, want %v", d, want)
		}
	}
}

// Property: any ring of n >= 3 vertices has diameter floor(n/2) and is
// connected.
func TestRingDiameterProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%30) + 3
		g := ringGraph(n)
		return connected(g) && diameter(g) == n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge count equals the handshake sum of degrees / 2.
func TestHandshakeProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		g := New(32)
		for _, p := range pairs {
			g.AddEdge(int(p%32), int((p>>5)%32))
		}
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += degree(g, v)
		}
		return sum == 2*g.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	n := g.Neighbors(2)
	want := []int{0, 3, 4}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", n, want)
		}
	}
}
