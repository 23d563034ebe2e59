package shapes

import "sosf/internal/view"

// Tree arranges members as a complete Arity-ary heap: member i's parent is
// (i-1)/Arity, its children are Arity*i+1 .. Arity*i+Arity.
type Tree struct {
	// Arity is the maximum number of children per member (>= 1).
	Arity int32
}

var _ Shape = Tree{}

// Neighbors implements Shape.
func (t Tree) Neighbors(i, n int) []int {
	a := int(t.Arity)
	if a < 1 {
		a = 1
	}
	var out []int
	if i > 0 {
		out = append(out, (i-1)/a)
	}
	for c := a*i + 1; c <= a*i+a && c < n; c++ {
		out = append(out, c)
	}
	return out
}

// Rank implements Shape: the tree (hop) distance between the two heap
// positions, which forms a smooth gradient toward the parent/child
// relation (distance 1).
func (t Tree) Rank(o, c view.Profile) float64 {
	return float64(t.dist(o.Index, c.Index))
}

// dist computes the path length between heap indices i and j by walking
// both up to their lowest common ancestor.
func (t Tree) dist(i, j int32) int32 {
	a := t.Arity
	if a < 1 {
		a = 1
	}
	var steps int32
	for i != j {
		if i > j {
			i = (i - 1) / a
		} else {
			j = (j - 1) / a
		}
		steps++
	}
	return steps
}

// Capacity implements Shape: parent + children + slack.
func (t Tree) Capacity(view.Profile) int {
	a := int(t.Arity)
	if a < 1 {
		a = 1
	}
	return 1 + a + slack
}
