// Package shapes is the component library of the framework: the catalog of
// elementary topologies (ring, line, clique, star, tree, grid, torus,
// hypercube) that components enforce internally and that developers
// assemble into larger systems.
//
// Each shape answers three questions about a component of n members whose
// nodes carry dense indices 0..n-1 (assigned by the runtime's role
// allocator):
//
//   - Neighbors(i, n): which members node i should be connected to — the
//     *target adjacency* used by the convergence oracle;
//   - Rank(owner, candidate): the greedy gradient driving the Vicinity
//     core protocol toward the target (lower is closer);
//   - Capacity(p): how many core-overlay slots a member needs, enabling
//     per-role differentiation (a star hub keeps every leaf, a leaf keeps
//     just the hubs).
package shapes

import (
	"fmt"
	"math/bits"
	"sort"

	"sosf/internal/view"
)

// Shape describes one elementary topology.
type Shape interface {
	// Neighbors returns the target neighbor indices of member i in a
	// component of n members. Implementations may return asymmetric
	// per-node lists; TargetEdges takes the union.
	Neighbors(i, n int) []int
	// Rank orders candidate c for owner o; lower is better. Both profiles
	// belong to the same component and epoch (the caller guarantees it);
	// o.Size is the component size.
	Rank(o, c view.Profile) float64
	// Capacity returns the core-overlay view capacity for a member with
	// profile p (target degree plus slack; slack speeds up convergence).
	Capacity(p view.Profile) int
}

// slack is the extra view capacity beyond the target degree; a little
// headroom lets good candidates stay around while better ones are found.
const slack = 3

// TargetEdges returns the deduplicated union of every member's target
// adjacency, as index pairs with first < second.
func TargetEdges(s Shape, n int) [][2]int {
	seen := make(map[[2]int]struct{})
	for i := 0; i < n; i++ {
		for _, j := range s.Neighbors(i, n) {
			if i == j {
				continue
			}
			e := [2]int{i, j}
			if j < i {
				e = [2]int{j, i}
			}
			seen[e] = struct{}{}
		}
	}
	out := make([][2]int, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// cyclicDist is the distance between indices i and j on a cycle of n.
// Indices beyond n can occur transiently (nodes that joined mid-epoch carry
// indices past the stamped component size); the wraparound complement is
// only taken when non-negative so the distance never goes negative.
func cyclicDist(i, j, n int32) int32 {
	d := i - j
	if d < 0 {
		d = -d
	}
	if w := n - d; w >= 0 && w < d {
		d = w
	}
	return d
}

func absDiff(i, j int32) int32 {
	if i > j {
		return i - j
	}
	return j - i
}

// keyMix01 derives a deterministic pseudo-random value in [0, 1) from a
// pair of node keys (SplitMix64 finalizer), used by shapes whose members
// are all equally desirable (cliques, star hubs) to keep gossip payloads
// diverse.
func keyMix01(a, b uint64) float64 {
	x := a ^ (b + 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// New instantiates a shape by registry name with the given parameters.
// Unknown names, unknown parameter keys or invalid values are errors.
func New(name string, params map[string]int64) (Shape, error) {
	get := func(key string, def int64) int64 {
		if v, ok := params[key]; ok {
			return v
		}
		return def
	}
	known := func(keys ...string) error {
		allowed := make(map[string]bool, len(keys))
		for _, k := range keys {
			allowed[k] = true
		}
		for k := range params {
			if !allowed[k] {
				return fmt.Errorf("shape %q: unknown parameter %q", name, k)
			}
		}
		return nil
	}
	switch name {
	case "ring":
		if err := known(); err != nil {
			return nil, err
		}
		return Ring{}, nil
	case "line":
		if err := known(); err != nil {
			return nil, err
		}
		return Line{}, nil
	case "clique":
		if err := known(); err != nil {
			return nil, err
		}
		return Clique{}, nil
	case "star":
		if err := known("hubs"); err != nil {
			return nil, err
		}
		h := get("hubs", 1)
		if h < 1 {
			return nil, fmt.Errorf("shape star: hubs must be >= 1, got %d", h)
		}
		return Star{Hubs: int32(h)}, nil
	case "tree":
		if err := known("arity"); err != nil {
			return nil, err
		}
		a := get("arity", 2)
		if a < 1 {
			return nil, fmt.Errorf("shape tree: arity must be >= 1, got %d", a)
		}
		return Tree{Arity: int32(a)}, nil
	case "grid":
		if err := known("width"); err != nil {
			return nil, err
		}
		w := get("width", 0)
		if w < 1 {
			return nil, fmt.Errorf("shape grid: width parameter is required and must be >= 1")
		}
		return Grid{Width: int32(w)}, nil
	case "torus":
		if err := known("width"); err != nil {
			return nil, err
		}
		w := get("width", 0)
		if w < 1 {
			return nil, fmt.Errorf("shape torus: width parameter is required and must be >= 1")
		}
		return Torus{Width: int32(w)}, nil
	case "hypercube":
		if err := known(); err != nil {
			return nil, err
		}
		return Hypercube{}, nil
	default:
		return nil, fmt.Errorf("unknown shape %q (known: %v)", name, Names())
	}
}

// Names returns the registry names of all available shapes, sorted.
func Names() []string {
	return []string{"clique", "grid", "hypercube", "line", "ring", "star", "torus", "tree"}
}

// bitsFor returns the number of address bits a hypercube over n members
// needs (0 for n <= 1).
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
