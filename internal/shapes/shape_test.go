package shapes

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"sosf/internal/graph"
	"sosf/internal/view"
)

func allShapes() []Shape {
	return []Shape{
		Ring{}, Line{}, Clique{}, Star{Hubs: 1}, Star{Hubs: 3},
		Tree{Arity: 2}, Tree{Arity: 3}, Grid{Width: 4}, Torus{Width: 4},
		Hypercube{},
	}
}

func profile(i, n int) view.Profile {
	return view.Profile{Index: int32(i), Size: int32(n)}
}

// The graph oracles below read only Neighbors and ConnectedOver.

func degree(g *graph.Graph, u int) int { return len(g.Neighbors(u)) }

// degreeRange returns the smallest and largest vertex degree.
func degreeRange(g *graph.Graph) (min, max int) {
	min = degree(g, 0)
	for u := 0; u < g.N(); u++ {
		d := degree(g, u)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

func hasEdge(g *graph.Graph, u, v int) bool {
	ns := g.Neighbors(u)
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

func connected(g *graph.Graph) bool {
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return g.ConnectedOver(all)
}

// eccentricity is the largest hop distance from src (BFS), or -1 when
// some vertex is unreachable from it.
func eccentricity(g *graph.Graph, src int) int {
	dist := map[int]int{src: 0}
	far := 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range g.Neighbors(u) {
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + 1
				far = dist[v]
				queue = append(queue, v)
			}
		}
	}
	if len(dist) < g.N() {
		return -1
	}
	return far
}

// diameter is the largest eccentricity, or -1 when g is disconnected.
func diameter(g *graph.Graph) int {
	max := 0
	for u := 0; u < g.N(); u++ {
		e := eccentricity(g, u)
		if e < 0 {
			return -1
		}
		if e > max {
			max = e
		}
	}
	return max
}

// Property: for every shape, neighbors are in range, never self, and never
// exceed the shape's declared capacity.
func TestNeighborsWellFormed(t *testing.T) {
	f := func(rawN uint8) bool {
		n := int(rawN%60) + 1
		for _, s := range allShapes() {
			for i := 0; i < n; i++ {
				neigh := s.Neighbors(i, n)
				if len(neigh) > s.Capacity(profile(i, n)) {
					return false
				}
				for _, j := range neigh {
					if j < 0 || j >= n || j == i {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every shape's target topology is connected for any component
// size — a component must always be one piece.
func TestTargetConnected(t *testing.T) {
	for _, s := range allShapes() {
		for n := 1; n <= 40; n++ {
			g := graph.New(n)
			for _, e := range TargetEdges(s, n) {
				g.AddEdge(e[0], e[1])
			}
			if !connected(g) {
				t.Fatalf("%T target disconnected at n=%d", s, n)
			}
		}
	}
}

// Property: rank of a profile against itself is 0 for every shape — except
// star leaves, which reject fellow leaves outright (self never appears as a
// candidate, so leaf self-rank is unconstrained and RankInf by design).
func TestRankIdentity(t *testing.T) {
	f := func(rawI, rawN uint8) bool {
		n := int(rawN%60) + 1
		i := int(rawI) % n
		p := profile(i, n)
		for _, s := range allShapes() {
			if st, ok := s.(Star); ok && i >= st.hubCount(n) {
				continue
			}
			if s.Rank(p, p) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// gradientExact lists shapes for which "the target neighbors are exactly
// the rank-minimizing candidates" holds, paired with sizes that satisfy it.
func TestGradientMatchesTarget(t *testing.T) {
	cases := []struct {
		shape Shape
		n     int
	}{
		{Ring{}, 17}, {Ring{}, 2}, {Line{}, 12},
		{Tree{Arity: 2}, 15}, {Tree{Arity: 3}, 13},
		{Grid{Width: 4}, 16}, {Hypercube{}, 16},
	}
	for _, tc := range cases {
		target := make(map[int]map[int]bool, tc.n)
		for i := 0; i < tc.n; i++ {
			target[i] = map[int]bool{}
			for _, j := range tc.shape.Neighbors(i, tc.n) {
				target[i][j] = true
			}
		}
		for i := 0; i < tc.n; i++ {
			if len(target[i]) == 0 {
				continue
			}
			// max rank among targets must be < min rank among non-targets
			// (non-strict would let the overlay settle on a wrong edge).
			maxT, minN := 0.0, view.RankInf
			for j := 0; j < tc.n; j++ {
				if j == i {
					continue
				}
				r := tc.shape.Rank(profile(i, tc.n), profile(j, tc.n))
				if target[i][j] {
					if r > maxT {
						maxT = r
					}
				} else if r < minN {
					minN = r
				}
			}
			if maxT >= minN {
				t.Fatalf("%T n=%d i=%d: target max rank %f >= non-target min %f",
					tc.shape, tc.n, i, maxT, minN)
			}
		}
	}
}

func TestRingNeighbors(t *testing.T) {
	cases := []struct {
		i, n int
		want []int
	}{
		{0, 1, nil},
		{0, 2, []int{1}},
		{1, 2, []int{0}},
		{0, 5, []int{4, 1}},
		{4, 5, []int{3, 0}},
	}
	for _, tc := range cases {
		got := Ring{}.Neighbors(tc.i, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("Ring.Neighbors(%d, %d) = %v, want %v", tc.i, tc.n, got, tc.want)
		}
		for k := range got {
			if got[k] != tc.want[k] {
				t.Fatalf("Ring.Neighbors(%d, %d) = %v, want %v", tc.i, tc.n, got, tc.want)
			}
		}
	}
}

func TestRingDegreeTwo(t *testing.T) {
	for n := 3; n <= 20; n++ {
		g := graph.New(n)
		for _, e := range TargetEdges(Ring{}, n) {
			g.AddEdge(e[0], e[1])
		}
		min, max := degreeRange(g)
		if min != 2 || max != 2 {
			t.Fatalf("ring n=%d degrees (%d, %d), want 2-regular", n, min, max)
		}
	}
}

func TestLineEndpoints(t *testing.T) {
	g := graph.New(7)
	for _, e := range TargetEdges(Line{}, 7) {
		g.AddEdge(e[0], e[1])
	}
	if degree(g, 0) != 1 || degree(g, 6) != 1 {
		t.Fatal("line endpoints should have degree 1")
	}
	if degree(g, 3) != 2 {
		t.Fatal("line interior should have degree 2")
	}
	if diameter(g) != 6 {
		t.Fatalf("line-7 diameter = %d, want 6", diameter(g))
	}
}

func TestCliqueComplete(t *testing.T) {
	n := 8
	edges := TargetEdges(Clique{}, n)
	if len(edges) != n*(n-1)/2 {
		t.Fatalf("clique edges = %d, want %d", len(edges), n*(n-1)/2)
	}
}

func TestStarTopology(t *testing.T) {
	n := 10
	g := graph.New(n)
	for _, e := range TargetEdges(Star{Hubs: 1}, n) {
		g.AddEdge(e[0], e[1])
	}
	if degree(g, 0) != n-1 {
		t.Fatalf("hub degree = %d, want %d", degree(g, 0), n-1)
	}
	for i := 1; i < n; i++ {
		if degree(g, i) != 1 {
			t.Fatalf("leaf %d degree = %d, want 1", i, degree(g, i))
		}
	}
	if diameter(g) != 2 {
		t.Fatalf("star diameter = %d, want 2", diameter(g))
	}
}

func TestMultiHubStar(t *testing.T) {
	n, h := 12, 3
	g := graph.New(n)
	for _, e := range TargetEdges(Star{Hubs: int32(h)}, n) {
		g.AddEdge(e[0], e[1])
	}
	for i := 0; i < h; i++ {
		if degree(g, i) != n-1 {
			t.Fatalf("hub %d degree = %d, want %d", i, degree(g, i), n-1)
		}
	}
	for i := h; i < n; i++ {
		if degree(g, i) != h {
			t.Fatalf("leaf %d degree = %d, want %d", i, degree(g, i), h)
		}
	}
}

func TestStarLeafRejectsLeaf(t *testing.T) {
	s := Star{Hubs: 1}
	n := 10
	if r := s.Rank(profile(5, n), profile(6, n)); r != view.RankInf {
		t.Fatalf("leaf-leaf rank = %f, want RankInf", r)
	}
	if r := s.Rank(profile(5, n), profile(0, n)); r == view.RankInf {
		t.Fatal("leaf-hub must be rankable")
	}
}

func TestTreeStructure(t *testing.T) {
	tr := Tree{Arity: 2}
	n := 7 // perfect binary tree of height 2
	g := graph.New(n)
	for _, e := range TargetEdges(tr, n) {
		g.AddEdge(e[0], e[1])
	}
	if g.EdgeCount() != n-1 {
		t.Fatalf("tree edges = %d, want %d", g.EdgeCount(), n-1)
	}
	if degree(g, 0) != 2 {
		t.Fatalf("root degree = %d, want 2", degree(g, 0))
	}
	for i := 3; i < 7; i++ {
		if degree(g, i) != 1 {
			t.Fatalf("leaf %d degree = %d, want 1", i, degree(g, i))
		}
	}
}

func TestTreeDist(t *testing.T) {
	tr := Tree{Arity: 2}
	cases := []struct {
		i, j int32
		want int32
	}{
		{0, 0, 0}, {0, 1, 1}, {1, 2, 2}, {3, 1, 1}, {3, 4, 2}, {3, 6, 4},
	}
	for _, tc := range cases {
		if got := tr.dist(tc.i, tc.j); got != tc.want {
			t.Fatalf("dist(%d, %d) = %d, want %d", tc.i, tc.j, got, tc.want)
		}
		if got := tr.dist(tc.j, tc.i); got != tc.want {
			t.Fatalf("dist(%d, %d) not symmetric", tc.j, tc.i)
		}
	}
}

func TestGridExact(t *testing.T) {
	g := graph.New(12)
	for _, e := range TargetEdges(Grid{Width: 4}, 12) {
		g.AddEdge(e[0], e[1])
	}
	// 3x4 grid: corner degree 2, edge degree 3, interior degree 4.
	if degree(g, 0) != 2 || degree(g, 3) != 2 || degree(g, 8) != 2 || degree(g, 11) != 2 {
		t.Fatal("grid corners should have degree 2")
	}
	if degree(g, 5) != 4 {
		t.Fatalf("grid interior degree = %d, want 4", degree(g, 5))
	}
}

func TestGridRagged(t *testing.T) {
	// 4 columns, 10 members: last row has 2.
	edges := TargetEdges(Grid{Width: 4}, 10)
	g := graph.New(10)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	if !connected(g) {
		t.Fatal("ragged grid must stay connected")
	}
	if degree(g, 9) != 2 { // (1,2): left 8, up 5
		t.Fatalf("ragged cell degree = %d, want 2", degree(g, 9))
	}
}

func TestTorusWraparound(t *testing.T) {
	// 4x4 torus: 4-regular, diameter 4.
	g := graph.New(16)
	for _, e := range TargetEdges(Torus{Width: 4}, 16) {
		g.AddEdge(e[0], e[1])
	}
	min, max := degreeRange(g)
	if min != 4 || max != 4 {
		t.Fatalf("torus degrees (%d, %d), want 4-regular", min, max)
	}
	if !hasEdge(g, 0, 3) {
		t.Fatal("row wraparound edge (0,3) missing")
	}
	if !hasEdge(g, 0, 12) {
		t.Fatal("column wraparound edge (0,12) missing")
	}
}

// TestTorusRaggedCapacity pins the O(1) view at ragged sizes: the clamped
// rank metric — not a Clique-style full view — is what realizes a short
// row's wrap edges, so capacity stays at the 4-neighborhood plus slack
// regardless of whether the size divides the width.
func TestTorusRaggedCapacity(t *testing.T) {
	tor := Torus{Width: 5}
	for _, n := range []int{14, 64, 97} {
		if got := tor.Capacity(profile(0, n)); got != 4+slack {
			t.Fatalf("ragged torus capacity at n=%d = %d, want %d", n, got, 4+slack)
		}
	}
}

// TestTorusRaggedEdgeRetention is the property that lets ragged tori keep
// O(1) views: for every target edge, at least one endpoint ranks fewer
// than capacity-many candidates strictly better than the other endpoint,
// so retention at that endpoint realizes the edge (an edge counts as
// realized when either endpoint holds it).
func TestTorusRaggedEdgeRetention(t *testing.T) {
	for _, tor := range []Torus{{Width: 4}, {Width: 5}, {Width: 8}} {
		for n := 2; n <= 40; n++ {
			capacity := tor.Capacity(profile(0, n))
			for _, e := range TargetEdges(tor, n) {
				ok := false
				for s := 0; s < 2 && !ok; s++ {
					i, j := e[s], e[1-s]
					r := tor.Rank(profile(i, n), profile(j, n))
					better := 0
					for k := 0; k < n; k++ {
						if k != i && tor.Rank(profile(i, n), profile(k, n)) < r {
							better++
						}
					}
					ok = better < capacity
				}
				if !ok {
					t.Fatalf("width=%d n=%d: target edge %v crowded out at both endpoints",
						tor.Width, n, e)
				}
			}
		}
	}
}

func TestTorusRaggedConnected(t *testing.T) {
	for n := 1; n <= 30; n++ {
		g := graph.New(n)
		for _, e := range TargetEdges(Torus{Width: 4}, n) {
			g.AddEdge(e[0], e[1])
		}
		if !connected(g) {
			t.Fatalf("ragged torus n=%d disconnected", n)
		}
	}
}

func TestHypercube(t *testing.T) {
	g := graph.New(8)
	for _, e := range TargetEdges(Hypercube{}, 8) {
		g.AddEdge(e[0], e[1])
	}
	min, max := degreeRange(g)
	if min != 3 || max != 3 {
		t.Fatalf("cube degrees (%d, %d), want 3-regular", min, max)
	}
	if diameter(g) != 3 {
		t.Fatalf("cube diameter = %d, want 3", diameter(g))
	}
	if got := (Hypercube{}).Rank(profile(0, 8), profile(7, 8)); got != 3 {
		t.Fatalf("Hamming(0,7) = %f, want 3", got)
	}
}

func TestRegistry(t *testing.T) {
	want := map[string]Shape{
		"clique": Clique{}, "grid": Grid{}, "hypercube": Hypercube{}, "line": Line{},
		"ring": Ring{}, "star": Star{}, "torus": Torus{}, "tree": Tree{},
	}
	for _, name := range Names() {
		params := map[string]int64{}
		if name == "grid" || name == "torus" {
			params["width"] = 4
		}
		s, err := New(name, params)
		if err != nil {
			t.Fatalf("New(%q) failed: %v", name, err)
		}
		if got, want := fmt.Sprintf("%T", s), fmt.Sprintf("%T", want[name]); got != want {
			t.Fatalf("New(%q) built a %s, want a %s", name, got, want)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]int64
	}{
		{"nosuch", nil},
		{"ring", map[string]int64{"width": 3}},
		{"grid", nil},                              // missing width
		{"grid", map[string]int64{"width": 0}},     // invalid width
		{"star", map[string]int64{"hubs": 0}},      // invalid hubs
		{"tree", map[string]int64{"arity": -1}},    // invalid arity
		{"torus", map[string]int64{"bogus": 1}},    // unknown key
		{"hypercube", map[string]int64{"dims": 3}}, // unknown key
	}
	for _, tc := range cases {
		if _, err := New(tc.name, tc.params); err == nil {
			t.Fatalf("New(%q, %v) should fail", tc.name, tc.params)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4},
	}
	for _, tc := range cases {
		if got := bitsFor(tc.n); got != tc.want {
			t.Fatalf("bitsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestTargetEdgesDeduplicated(t *testing.T) {
	edges := TargetEdges(Ring{}, 6)
	if len(edges) != 6 {
		t.Fatalf("ring-6 edges = %d, want 6", len(edges))
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not normalized", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}
