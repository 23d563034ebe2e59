package eval

import (
	"fmt"

	"sosf/internal/metrics"
)

// Fig4 reproduces Figure 4: per-round bandwidth (bytes per node) of the
// baseline class (peer sampling + shape core protocol — the cost of the
// elementary topologies alone) against the runtime-overhead class (UO1,
// UO2, port selection, port connection).
func Fig4(o Options) (*Result, error) {
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
	return &Result{Figures: []*Figure{{
		ID:     "fig4",
		Title:  fmt.Sprintf("Fig 4: bandwidth, core protocol vs. runtime (%d components, %d nodes)", comps, nodes),
		XLabel: "Rounds",
		YLabel: "Bandwidth (bytes)",
		Series: []*metrics.Series{baseline, overhead},
		Notes: []string{
			describeScale(o, "ring-of-rings, %d components, %d nodes, %d rounds", comps, nodes, rounds),
			"bytes are per node per round; paper expectation: both series small (<1 KB), same pattern",
		},
	}}}, nil
}
