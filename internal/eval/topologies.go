// Package eval contains one driver per figure and experiment of the
// paper's evaluation (Section 4), plus the extension experiments listed in
// the README section "Regenerating the paper's evaluation"; Drivers lists
// them all. Figures 2 and 3 and the ablations are rows of one sweep table
// run by one function. Every driver is deterministic given (Options.Seed,
// scale) and aggregates over Options.Runs independent runs with 90%
// confidence intervals — the paper's methodology (25 runs, 90% CIs).
//
// Because a (seed, configuration) pair fully determines a simulation run
// (see internal/sim), the (sweep point, run) grid behind every figure is
// embarrassingly parallel. Options.Parallelism bounds a worker pool that
// fans those independent engine instances across goroutines (default
// runtime.GOMAXPROCS(0); 1 runs the cells sequentially). Per-run
// seeds are derived from (Seed, point, run) at any pool size and
// drivers aggregate index-addressed results in index order, so figures and
// tables are byte-identical at any parallelism — only the wall clock
// changes.
package eval

import (
	"fmt"

	"sosf/internal/dsl"
	"sosf/internal/spec"
)

// RingOfRingsDSL returns the DSL source for the paper's flagship composite:
// k rings whose heads and tails are linked into one big cycle.
func RingOfRingsDSL(k int) string {
	return fmt.Sprintf(`
# %d elementary rings composed into a ring of rings.
topology ring_of_rings {
    let k = %d
    repeat i 0 k-1 {
        component seg[i] ring {
            weight 1
            port head
            port tail
        }
    }
    repeat i 0 k-1 {
        link seg[i].head seg[(i+1)%%k].tail
    }
}`, k, k)
}

// StarOfCliquesDSL returns the DSL source for a MongoDB-style sharded
// cluster: a router star whose hub set fans out to `shards` replica-set
// cliques — the paper's motivating "star of cliques" (Section 2.2).
func StarOfCliquesDSL(shards int) string {
	return fmt.Sprintf(`
# A sharded NoSQL cluster: router tier (star) + %d replica sets (cliques).
topology star_of_cliques {
    let shards = %d
    component routers star {
        param hubs 3
        weight shards
        port config
    }
    repeat i 0 shards-1 {
        component shard[i] clique {
            weight 1
            port uplink
        }
    }
    repeat i 0 shards-1 {
        link routers.config shard[i].uplink
    }
}`, shards, shards)
}

// TreeOfRingsDSL returns the DSL source for a binary tree of k rings:
// ring i hangs off ring (i-1)/2, a telco-style hierarchical backbone.
func TreeOfRingsDSL(k int) string {
	return fmt.Sprintf(`
# %d rings composed along a binary tree.
topology tree_of_rings {
    let k = %d
    repeat i 0 k-1 {
        component ring[i] ring {
            weight 1
            port up
            port left
            port right
        }
    }
    repeat i 0 (k-2)/2 {
        link ring[2*i+1].up ring[i].left
    }
    repeat i 0 (k-3)/2 {
        link ring[2*i+2].up ring[i].right
    }
}`, k, k)
}

// GridOfCliquesDSL returns the DSL source for a w×w mesh of cliques, each
// linked to its right and lower neighbor — a rack/cluster fabric shape.
func GridOfCliquesDSL(w int) string {
	return fmt.Sprintf(`
# A %dx%d mesh of cliques.
topology grid_of_cliques {
    let w = %d
    repeat i 0 w*w-1 {
        component cell[i] clique {
            weight 1
            port north
            port south
            port east
            port west
        }
    }
    repeat r 0 w-1 {
        repeat c 0 w-2 {
            link cell[r*w+c].east cell[r*w+c+1].west
        }
    }
    repeat r 0 w-2 {
        repeat c 0 w-1 {
            link cell[r*w+c].south cell[(r+1)*w+c].north
        }
    }
}`, w, w, w)
}

// MustTopology compiles a DSL source, panicking on error — for the
// harness's own canonical sources, which are covered by tests.
func MustTopology(src string) *spec.Topology {
	topo, err := dsl.ParseTopology(src)
	if err != nil {
		panic(fmt.Sprintf("eval: internal topology failed to compile: %v\n%s", err, src))
	}
	return topo
}

// GalleryEntry names one showcase topology of experiment (i).
type GalleryEntry struct {
	Name string
	DSL  string
}

// GalleryEntries returns the showcase topologies in presentation order.
func GalleryEntries() []GalleryEntry {
	return []GalleryEntry{
		{"ring-of-rings", RingOfRingsDSL(8)},
		{"star-of-cliques", StarOfCliquesDSL(6)},
		{"tree-of-rings", TreeOfRingsDSL(7)},
		{"grid-of-cliques", GridOfCliquesDSL(3)},
	}
}
