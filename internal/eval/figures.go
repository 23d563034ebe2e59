package eval

import (
	"fmt"

	"sosf/internal/core"
	"sosf/internal/metrics"
	"sosf/internal/spec"
)

// Fig2 reproduces Figure 2: rounds-to-convergence of the five
// sub-procedures as the node count grows (log-scale sweep), for a
// ring-of-rings of 20 components.
func Fig2(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodesSweep := []int{100, 200, 400, 800, 1600, 3200}
	if o.Full {
		nodesSweep = []int{100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600}
	}
	const components = 20
	topo := MustTopology(RingOfRingsDSL(components))

	grid, err := runGrid(o, len(nodesSweep), func(pi, run int) (*RunResult, error) {
		res, err := RunOnce(o.config(topo, nodesSweep[pi], seedFor(o.Seed, pi, run)), roundCap, true)
		if err != nil {
			return nil, fmt.Errorf("fig2 n=%d run=%d: %w", nodesSweep[pi], run, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	series := subSeries(len(nodesSweep))
	for pi, n := range nodesSweep {
		var accs [core.NumSubs]metrics.Accumulator
		for _, res := range grid[pi] {
			for _, sub := range core.Subs() {
				accs[sub].Add(convergedOrCap(res, sub, roundCap))
			}
		}
		for _, sub := range core.Subs() {
			series[sub].Append(float64(n), metrics.Summarize(&accs[sub]))
		}
	}
	return &Figure{
		ID:     "fig2",
		Title:  fmt.Sprintf("Fig 2: convergence time vs. system size (%d components)", components),
		XLabel: "# of Nodes",
		YLabel: "# of rounds to converge",
		LogX:   true,
		Series: series[:],
		Notes: []string{
			describeScale(o, "ring-of-rings, %d components, %d..%d nodes",
				components, nodesSweep[0], nodesSweep[len(nodesSweep)-1]),
			"paper expectation: fast convergence, logarithmic growth with the number of nodes",
		},
	}, nil
}

// Fig3 reproduces Figure 3: rounds-to-convergence of the five
// sub-procedures as the number of components grows, at a fixed population.
func Fig3(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodes := 3200
	if o.Full {
		nodes = 25600
	}
	compSweep := []int{1, 2, 5, 10, 15, 20}

	topos := make([]*spec.Topology, len(compSweep))
	for pi, comps := range compSweep {
		topos[pi] = MustTopology(RingOfRingsDSL(comps))
	}
	grid, err := runGrid(o, len(compSweep), func(pi, run int) (*RunResult, error) {
		res, err := RunOnce(o.config(topos[pi], nodes, seedFor(o.Seed, 100+pi, run)), roundCap, true)
		if err != nil {
			return nil, fmt.Errorf("fig3 comps=%d run=%d: %w", compSweep[pi], run, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	series := subSeries(len(compSweep))
	for pi, comps := range compSweep {
		var accs [core.NumSubs]metrics.Accumulator
		for _, res := range grid[pi] {
			for _, sub := range core.Subs() {
				accs[sub].Add(convergedOrCap(res, sub, roundCap))
			}
		}
		for _, sub := range core.Subs() {
			series[sub].Append(float64(comps), metrics.Summarize(&accs[sub]))
		}
	}
	return &Figure{
		ID:     "fig3",
		Title:  fmt.Sprintf("Fig 3: convergence time vs. number of components (%d nodes)", nodes),
		XLabel: "# of Components",
		YLabel: "# of rounds to converge",
		Series: series[:],
		Notes: []string{
			describeScale(o, "ring-of-rings, %d nodes, %d..%d components",
				nodes, compSweep[0], compSweep[len(compSweep)-1]),
			"paper expectation: slow growth with the number of components",
		},
	}, nil
}

// Fig4 reproduces Figure 4: per-round bandwidth (bytes per node) of the
// baseline class (peer sampling + shape core protocol — the cost of the
// elementary topologies alone) against the runtime-overhead class (UO1,
// UO2, port selection, port connection).
func Fig4(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodes, comps, rounds := 3200, 20, 20
	if o.Full {
		nodes = 25600
	}
	topo := MustTopology(RingOfRingsDSL(comps))

	results, err := runRuns(o, func(run int) (*RunResult, error) {
		res, err := RunOnce(o.config(topo, nodes, seedFor(o.Seed, 200, run)), rounds, false)
		if err != nil {
			return nil, fmt.Errorf("fig4 run=%d: %w", run, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	baseRuns := make([][]float64, 0, o.Runs)
	overRuns := make([][]float64, 0, o.Runs)
	for _, res := range results {
		baseRuns = append(baseRuns, res.BaselinePerNode)
		overRuns = append(overRuns, res.OverheadPerNode)
	}

	baseline := &metrics.Series{Name: "Baseline"}
	for r, s := range metrics.AggregateRuns(baseRuns) {
		baseline.Append(float64(r+1), s)
	}
	overhead := &metrics.Series{Name: "Overhead"}
	for r, s := range metrics.AggregateRuns(overRuns) {
		overhead.Append(float64(r+1), s)
	}
	return &Figure{
		ID:     "fig4",
		Title:  fmt.Sprintf("Fig 4: bandwidth, core protocol vs. runtime (%d components, %d nodes)", comps, nodes),
		XLabel: "Rounds",
		YLabel: "Bandwidth (bytes)",
		Series: []*metrics.Series{baseline, overhead},
		Notes: []string{
			describeScale(o, "ring-of-rings, %d components, %d nodes, %d rounds", comps, nodes, rounds),
			"bytes are per node per round; paper expectation: both series small (<1 KB), same pattern",
		},
	}, nil
}
