package shapes

import "sosf/internal/view"

// Ring arranges members on a cycle: member i links to i±1 (mod n).
type Ring struct{}

var _ Shape = Ring{}

// Neighbors implements Shape.
func (Ring) Neighbors(i, n int) []int {
	switch {
	case n <= 1:
		return nil
	case n == 2:
		return []int{1 - i}
	default:
		return []int{(i + n - 1) % n, (i + 1) % n}
	}
}

// Rank implements Shape: cyclic index distance.
func (Ring) Rank(o, c view.Profile) float64 {
	return float64(cyclicDist(o.Index, c.Index, o.Size))
}

// Capacity implements Shape.
func (Ring) Capacity(view.Profile) int { return 2 + slack }

// Line arranges members on a path: member i links to i±1, ends have one
// neighbor.
type Line struct{}

var _ Shape = Line{}

// Neighbors implements Shape.
func (Line) Neighbors(i, n int) []int {
	var out []int
	if i > 0 {
		out = append(out, i-1)
	}
	if i+1 < n {
		out = append(out, i+1)
	}
	return out
}

// Rank implements Shape: absolute index distance.
func (Line) Rank(o, c view.Profile) float64 {
	return float64(absDiff(o.Index, c.Index))
}

// Capacity implements Shape.
func (Line) Capacity(view.Profile) int { return 2 + slack }

// Clique fully connects all members.
type Clique struct{}

var _ Shape = Clique{}

// Neighbors implements Shape.
func (Clique) Neighbors(i, n int) []int {
	out := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// Rank implements Shape: every member is wanted equally, so the rank is a
// deterministic pairwise pseudo-random value. A distance-based rank would
// sort "far" members last in every gossip payload, starving them of
// refreshes and leaving the last few clique edges to a long random tail;
// pairwise mixing gives every member a regular refresh path instead.
func (Clique) Rank(o, c view.Profile) float64 {
	if o.Index == c.Index && o.Key == c.Key {
		return 0
	}
	return keyMix01(o.Key, c.Key)
}

// Capacity implements Shape: a clique member must hold everyone.
func (Clique) Capacity(p view.Profile) int {
	n := int(p.Size)
	if n < 2 {
		return 1
	}
	return n - 1 + slack
}

// Star connects every leaf to each of the first Hubs members; hubs form a
// clique among themselves (with Hubs=1 this is the classic star). MongoDB's
// sharded-cluster router layer — the paper's motivating "star of cliques" —
// is a star whose hub set is the router replica group.
type Star struct {
	// Hubs is the number of hub members (indices 0..Hubs-1).
	Hubs int32
}

var _ Shape = Star{}

// hubCount clamps the hub count to the component size.
func (s Star) hubCount(n int) int {
	h := int(s.Hubs)
	if h < 1 {
		h = 1
	}
	if h > n {
		h = n
	}
	return h
}

// Neighbors implements Shape.
func (s Star) Neighbors(i, n int) []int {
	h := s.hubCount(n)
	if i < h {
		// Hubs connect to everyone.
		return Clique{}.Neighbors(i, n)
	}
	out := make([]int, h)
	for j := 0; j < h; j++ {
		out[j] = j
	}
	return out
}

// Rank implements Shape: hubs want everyone (closest index first); leaves
// want only hubs and reject other leaves outright.
func (s Star) Rank(o, c view.Profile) float64 {
	h := int32(s.hubCount(int(o.Size)))
	if o.Index < h {
		return float64(cyclicDist(o.Index, c.Index, o.Size))
	}
	if c.Index < h {
		return float64(c.Index)
	}
	return view.RankInf
}

// Capacity implements Shape: hubs hold the whole component, leaves hold
// just the hub set.
func (s Star) Capacity(p view.Profile) int {
	n := int(p.Size)
	h := s.hubCount(n)
	if int(p.Index) < h {
		if n < 2 {
			return 1
		}
		return n - 1 + slack
	}
	return h + slack
}
