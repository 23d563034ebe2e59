package shapes

import "sosf/internal/view"

// Grid arranges members on a Width-column lattice: member i sits at cell
// (i mod Width, i div Width) and links to its 4-neighborhood. When n is not
// a multiple of Width the last row is simply shorter (a "ragged" grid),
// which keeps the target well-defined for any component size — component
// sizes fluctuate under churn and proportional node assignment.
type Grid struct {
	// Width is the number of columns (>= 1).
	Width int32
}

var _ Shape = Grid{}

// Neighbors implements Shape.
func (g Grid) Neighbors(i, n int) []int {
	w := int(g.Width)
	if w < 1 {
		w = 1
	}
	x, y := i%w, i/w
	var out []int
	if x > 0 {
		out = append(out, i-1)
	}
	if x+1 < w && i+1 < n {
		out = append(out, i+1)
	}
	if y > 0 {
		out = append(out, i-w)
	}
	if i+w < n {
		out = append(out, i+w)
	}
	return out
}

// Rank implements Shape: Manhattan distance between lattice cells.
func (g Grid) Rank(o, c view.Profile) float64 {
	w := g.Width
	if w < 1 {
		w = 1
	}
	return float64(absDiff(o.Index%w, c.Index%w) + absDiff(o.Index/w, c.Index/w))
}

// Capacity implements Shape.
func (Grid) Capacity(view.Profile) int { return 4 + slack }

// Torus is a Grid whose rows and columns wrap around, so every member has
// a full 4-neighborhood (for components of at least 3 rows and columns).
// Ragged last rows wrap to the nearest cell of the destination row.
type Torus struct {
	// Width is the number of columns (>= 1).
	Width int32
}

var _ Shape = Torus{}

// rows returns the number of (possibly ragged) rows for n members.
func (t Torus) rows(n int) int {
	w := int(t.Width)
	if w < 1 {
		w = 1
	}
	return (n + w - 1) / w
}

// rowLen returns the length of row r.
func (t Torus) rowLen(r, n int) int {
	w := int(t.Width)
	if w < 1 {
		w = 1
	}
	l := n - r*w
	if l > w {
		l = w
	}
	return l
}

// Neighbors implements Shape.
func (t Torus) Neighbors(i, n int) []int {
	w := int(t.Width)
	if w < 1 {
		w = 1
	}
	x, y := i%w, i/w
	rows := t.rows(n)
	var out []int
	if l := t.rowLen(y, n); l > 1 {
		out = append(out, y*w+(x+1)%l, y*w+(x+l-1)%l)
	}
	if rows > 1 {
		down := (y + 1) % rows
		up := (y + rows - 1) % rows
		clamp := func(r int) int {
			xx := x
			if l := t.rowLen(r, n); xx >= l {
				xx = l - 1
			}
			return r*w + xx
		}
		out = append(out, clamp(down), clamp(up))
	}
	// Deduplicate (tiny components can make up == down etc.).
	seen := make(map[int]struct{}, len(out))
	uniq := out[:0]
	for _, j := range out {
		if j == i {
			continue
		}
		if _, ok := seen[j]; ok {
			continue
		}
		seen[j] = struct{}{}
		uniq = append(uniq, j)
	}
	return uniq
}

// Rank implements Shape: Manhattan distance with wraparound on both axes.
// The horizontal wrap is measured on the shorter of the two endpoint rows,
// with both columns clamped onto it — the same clamping Neighbors applies
// to a ragged last row's wrap edges, so those target edges are rank-1 under
// this metric instead of ranking arbitrarily far. On an exact torus every
// row is full and the clamp is a no-op, so exact rankings are unchanged.
func (t Torus) Rank(o, c view.Profile) float64 {
	w := t.Width
	if w < 1 {
		w = 1
	}
	n := int(o.Size)
	dy := cyclicDist(o.Index/w, c.Index/w, int32(t.rows(n)))
	m := int32(t.rowLen(int(o.Index/w), n))
	if l := int32(t.rowLen(int(c.Index/w), n)); l < m {
		m = l
	}
	if m < 1 {
		// Transient out-of-range indices (stale profiles mid-epoch) land
		// outside every row; pin them to a 1-column wrap like cyclicDist
		// pins out-of-range rows.
		m = 1
	}
	xo, xc := o.Index%w, c.Index%w
	if xo >= m {
		xo = m - 1
	}
	if xc >= m {
		xc = m - 1
	}
	return float64(cyclicDist(xo, xc, m) + dy)
}

// Capacity implements Shape: the 4-neighborhood plus slack, at every size.
// Ragged sizes need no more — Rank clamps the horizontal wrap onto the
// shorter endpoint row, so each target edge is rank-1 for at least one of
// its endpoints and either endpoint's retention realizes it. (Before the
// clamped metric, ragged sizes degenerated to a Clique-style full view.)
func (t Torus) Capacity(view.Profile) int {
	return 4 + slack
}

// Hypercube arranges members on a binary hypercube: member i links to every
// index obtained by flipping one bit of i (when that index is a member).
type Hypercube struct{}

var _ Shape = Hypercube{}

// Neighbors implements Shape.
func (Hypercube) Neighbors(i, n int) []int {
	var out []int
	for b := 0; b < bitsFor(n); b++ {
		j := i ^ (1 << b)
		if j < n {
			out = append(out, j)
		}
	}
	return out
}

// Rank implements Shape: Hamming distance between indices.
func (Hypercube) Rank(o, c view.Profile) float64 {
	x := uint32(o.Index) ^ uint32(c.Index)
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return float64(count)
}

// Capacity implements Shape.
func (h Hypercube) Capacity(p view.Profile) int {
	return bitsFor(int(p.Size)) + slack
}
