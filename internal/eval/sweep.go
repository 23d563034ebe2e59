package eval

import (
	"fmt"

	"sosf/internal/core"
	"sosf/internal/metrics"
)

// Driver is one experiment of the evaluation.
type Driver struct {
	// ID names the driver; it is the ID of its result's first figure or
	// table.
	ID string
	// Group is the experiment family the driver belongs to: sosbench has
	// one flag per group.
	Group string
	Run   func(Options) (*Result, error)
}

// Drivers lists every experiment in output order. Figures 2 and 3 and the
// ablations are rows of the sweep table; the other drivers are written by
// hand because each steps or measures its simulations its own way.
var Drivers = []Driver{
	{"fig2", "fig2", runSweep("fig2")},
	{"fig3", "fig3", runSweep("fig3")},
	{"fig4", "fig4", Fig4},
	{"curves", "curves", Curves},
	{"churn", "churn", Churn},
	{"ablation-uo2", "ablations", runSweep("ablation-uo2")},
	{"ablation-randomness", "ablations", runSweep("ablation-randomness")},
	{"ablation-gossip", "ablations", runSweep("ablation-gossip")},
	{"ablation-viewsize", "ablations", runSweep("ablation-viewsize")},
	{"gallery", "gallery", Gallery},
	{"reconfig", "reconfig", Reconfig},
	{"catastrophe", "catastrophe", Catastrophe},
	{"baseline", "baseline", Baseline},
}

// sweep is one row of the sweep table: a figure whose every point x runs
// each variant o.Runs times to convergence (or roundCap), all variants of
// point pi sharing the seeds seedFor(o.Seed, seedBase+pi, run). Each column
// folds one value of every run of its variant at a point into a series
// point.
type sweep struct {
	xLabel, yLabel string
	logX           bool
	// reduced and full are the row's scale without and with Options.Full.
	reduced, full scale
	seedBase      int
	// point is the configuration of the point x at the scale's population:
	// topology, nodes and the one knob the row varies. The sweep sets the
	// seed, the round workers and the variant.
	point    func(x, nodes int) core.Config
	variants []variant
	columns  []column
	// caption renders the figure's title and the scale part of its first
	// note; notes follow that note verbatim.
	caption func(s scale) (title, note string)
	notes   []string
}

// scale is a sweep's x values and, where x is not the node count, its
// population.
type scale struct {
	xs    []int
	nodes int
}

// variant is one ablation of the protocol stack a sweep point runs; the
// zero value is the full stack.
type variant struct {
	disableUO2, pureGreedy bool
}

// column is one series of a sweep: value read from every run of variant.
type column struct {
	name    string
	variant int
	value   func(*RunResult) float64
}

// fullStack is the variant list of a row that ablates nothing.
var fullStack = []variant{{}}

// capNote is the note of rows whose runs may not converge.
var capNote = fmt.Sprintf("runs that never converge are capped at %d rounds", roundCap)

// sweeps is the sweep table, keyed by driver ID.
var sweeps = map[string]sweep{
	// Figure 2: rounds-to-convergence of the five sub-procedures as the
	// node count grows (log-scale sweep), for a ring of 20 rings.
	"fig2": {
		xLabel: "# of Nodes", yLabel: "# of rounds to converge", logX: true,
		reduced:  scale{xs: []int{100, 200, 400, 800, 1600, 3200}},
		full:     scale{xs: []int{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600}},
		seedBase: 0,
		point:    xNodes(20),
		variants: fullStack,
		columns:  subColumns(),
		caption: func(s scale) (string, string) {
			return "Fig 2: convergence time vs. system size (20 components)",
				fmt.Sprintf("ring-of-rings, 20 components, %d..%d nodes", s.xs[0], s.xs[len(s.xs)-1])
		},
		notes: []string{"paper expectation: fast convergence, logarithmic growth with the number of nodes"},
	},
	// Figure 3: rounds-to-convergence of the five sub-procedures as the
	// number of components grows, at a fixed population.
	"fig3": {
		xLabel: "# of Components", yLabel: "# of rounds to converge",
		reduced:  scale{xs: []int{1, 2, 5, 10, 15, 20}, nodes: 3200},
		full:     scale{xs: []int{1, 2, 5, 10, 15, 20}, nodes: 25600},
		seedBase: 100,
		point:    xRings,
		variants: fullStack,
		columns:  subColumns(),
		caption: func(s scale) (string, string) {
			return fmt.Sprintf("Fig 3: convergence time vs. number of components (%d nodes)", s.nodes),
				fmt.Sprintf("ring-of-rings, %d nodes, %d..%d components", s.nodes, s.xs[0], s.xs[len(s.xs)-1])
		},
		notes: []string{"paper expectation: slow growth with the number of components"},
	},
	// Port-connection convergence with and without the distant-component
	// overlay: without UO2, managers only find remote components through
	// chance encounters in the peer-sampling view, which degrades as
	// components multiply — the design reason UO2 exists.
	"ablation-uo2": {
		xLabel: "# of Components", yLabel: "rounds until all links established",
		reduced:  scale{xs: []int{2, 5, 10, 15, 20}, nodes: 1000},
		full:     scale{xs: []int{2, 5, 10, 15, 20}, nodes: 4800},
		seedBase: 800,
		point:    xRings,
		variants: []variant{{}, {disableUO2: true}},
		columns: []column{
			{"with UO2", 0, convergence(core.SubPortConnect)},
			{"without UO2 (ablated)", 1, convergence(core.SubPortConnect)},
		},
		caption: func(s scale) (string, string) {
			return "Ablation: port connection with vs. without UO2",
				fmt.Sprintf("%d nodes; ring-of-rings", s.nodes)
		},
		notes: []string{capNote},
	},
	// The full protocol against the pure-greedy variant (no random
	// candidate feed, no random contacts): Vicinity's "pinch of
	// randomness" is what guarantees progress out of local minima.
	"ablation-randomness": {
		xLabel: "# of Nodes", yLabel: "rounds until shapes converge", logX: true,
		reduced:  scale{xs: []int{100, 200, 400, 800}},
		full:     scale{xs: []int{100, 200, 400, 800, 1600, 3200}},
		seedBase: 900,
		point:    xNodes(4),
		variants: []variant{{}, {pureGreedy: true}},
		columns: []column{
			{"with random feed", 0, convergence(core.SubElementary)},
			{"pure greedy (ablated)", 1, convergence(core.SubElementary)},
		},
		caption: func(scale) (string, string) {
			return "Ablation: elementary-shape convergence with vs. without randomness",
				"ring-of-rings, 4 components"
		},
		notes: []string{capNote},
	},
	// The per-exchange descriptor budget: bigger gossip messages buy
	// faster convergence at proportional bandwidth cost — the central
	// tuning knob of every T-Man-family protocol.
	"ablation-gossip": {
		xLabel: "descriptors per exchange", yLabel: "rounds / (bytes per node per round x 0.01)",
		reduced:  scale{xs: []int{2, 3, 5, 8, 12}, nodes: 800},
		full:     scale{xs: []int{2, 3, 5, 8, 12}, nodes: 3200},
		seedBase: 1000,
		point: func(x, nodes int) core.Config {
			return core.Config{Topology: MustTopology(RingOfRingsDSL(4)), Nodes: nodes, OverlayGossip: x}
		},
		variants: fullStack,
		columns: []column{
			{"rounds to converge", 0, convergence(core.SubElementary)},
			{"bytes/node/round (x100)", 0, func(r *RunResult) float64 { return bytesPerNodeRound(r) / 100 }},
		},
		caption: func(s scale) (string, string) {
			return "Ablation: gossip message size vs. convergence and bandwidth",
				fmt.Sprintf("ring-of-rings, %d nodes, 4 components", s.nodes)
		},
	},
	// The UO1 view capacity: the same-component overlay must be large
	// enough to keep each component's gossip substrate connected, but
	// extra capacity mostly costs bandwidth.
	"ablation-viewsize": {
		xLabel: "UO1 view capacity", yLabel: "rounds to converge",
		reduced:  scale{xs: []int{3, 5, 8, 12, 16}, nodes: 800},
		full:     scale{xs: []int{3, 5, 8, 12, 16}, nodes: 3200},
		seedBase: 1100,
		point: func(x, nodes int) core.Config {
			return core.Config{Topology: MustTopology(RingOfRingsDSL(4)), Nodes: nodes, UO1Capacity: x}
		},
		variants: fullStack,
		columns: []column{
			{"Elementary Topology", 0, convergence(core.SubElementary)},
			{"Port Selection", 0, convergence(core.SubPortSelect)},
		},
		caption: func(s scale) (string, string) {
			return "Ablation: UO1 view capacity vs. convergence",
				fmt.Sprintf("ring-of-rings, %d nodes, 4 components", s.nodes)
		},
	},
}

// runSweep returns the driver of the sweep table's row id.
func runSweep(id string) func(Options) (*Result, error) {
	s := sweeps[id]
	return func(o Options) (*Result, error) { return s.run(id, o) }
}

// run runs every (point, variant, run) cell of the row on the pool and
// folds the results into the figure id.
func (s sweep) run(id string, o Options) (*Result, error) {
	o = o.withDefaults()
	sc := s.reduced
	if o.Full {
		sc = s.full
	}
	points := make([]core.Config, len(sc.xs))
	for pi, x := range sc.xs {
		points[pi] = s.point(x, sc.nodes)
	}
	nv := len(s.variants)
	grid, err := runGrid(o, len(points)*nv, func(p, run int) (*RunResult, error) {
		pi, v := p/nv, s.variants[p%nv]
		cfg := points[pi]
		cfg.Seed, cfg.Workers = seedFor(o.Seed, s.seedBase+pi, run), o.RoundWorkers
		cfg.DisableUO2, cfg.PureGreedy = v.disableUO2, v.pureGreedy
		res, err := RunOnce(cfg, roundCap, true)
		if err != nil {
			return nil, fmt.Errorf("%s x=%d variant=%d run=%d: %w", id, sc.xs[pi], p%nv, run, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	series := make([]*metrics.Series, len(s.columns))
	for c, col := range s.columns {
		series[c] = &metrics.Series{Name: col.name}
		series[c].Reserve(len(sc.xs))
	}
	for pi, x := range sc.xs {
		for c, col := range s.columns {
			var acc metrics.Accumulator
			for _, res := range grid[pi*nv+col.variant] {
				acc.Add(col.value(res))
			}
			series[c].Append(float64(x), metrics.Summarize(&acc))
		}
	}
	title, note := s.caption(sc)
	return &Result{Figures: []*Figure{{
		ID:     id,
		Title:  title,
		XLabel: s.xLabel,
		YLabel: s.yLabel,
		LogX:   s.logX,
		Series: series,
		Notes:  append([]string{describeScale(o, "%s", note)}, s.notes...),
	}}}, nil
}

// xRings is the point of x rings of nodes nodes in all.
func xRings(x, nodes int) core.Config {
	return core.Config{Topology: MustTopology(RingOfRingsDSL(x)), Nodes: nodes}
}

// xNodes returns the point of comps rings of x nodes in all.
func xNodes(comps int) func(x, _ int) core.Config {
	return func(x, _ int) core.Config {
		return core.Config{Topology: MustTopology(RingOfRingsDSL(comps)), Nodes: x}
	}
}

// subColumns is one column per sub-procedure: its rounds to converge.
func subColumns() []column {
	cols := make([]column, 0, core.NumSubs)
	for _, sub := range core.Subs() {
		cols = append(cols, column{sub.String(), 0, convergence(sub)})
	}
	return cols
}

// convergence reads a run's convergence round of sub, or roundCap when it
// never converged (so aggregates stay defined; rows whose runs may not
// converge say so in a note).
func convergence(sub core.Sub) func(*RunResult) float64 {
	return func(r *RunResult) float64 {
		if c := r.ConvergedAt[sub]; c >= 0 {
			return float64(c)
		}
		return roundCap
	}
}

// bytesPerNodeRound is a run's mean bandwidth of both classes per node and
// round.
func bytesPerNodeRound(r *RunResult) float64 {
	var sum float64
	for i := range r.BaselinePerNode {
		sum += r.BaselinePerNode[i] + r.OverheadPerNode[i]
	}
	return sum / float64(len(r.BaselinePerNode))
}
