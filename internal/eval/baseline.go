package eval

import (
	"fmt"

	"sosf/internal/baseline"
	"sosf/internal/core"
	"sosf/internal/metrics"
)

// Baseline compares the composed runtime against the monolithic
// self-organizing overlay the paper argues against (Section 2.2): one
// Vicinity instance with a hand-crafted global distance function building
// the same ring-of-rings. Both converge on a static population; the
// difference the paper predicts — and this experiment shows — is what
// happens afterwards: the composed runtime re-elects port managers and
// heals its inter-component links after a catastrophe, while the
// monolithic overlay's designated boundary roles die with their nodes.
func Baseline(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes, segments := 800, 8
	if o.Full {
		nodes = 3200
	}
	const blast = 0.5
	const healRounds = 60

	topo := MustTopology(RingOfRingsDSL(segments))
	type baselineRun struct {
		composedRounds, composedBytes, composedRing, composedLinks float64
		monoRounds, monoBytes, monoRing, monoLinks                 float64
	}
	results, err := runRuns(o, func(run int) (baselineRun, error) {
		seed := seedFor(o.Seed, 1200, run)
		var out baselineRun

		// Composed framework.
		sys, err := core.NewSystem(o.config(topo, nodes, seed))
		if err != nil {
			return out, fmt.Errorf("baseline composed run=%d: %w", run, err)
		}
		tracker := core.NewTracker(sys, true)
		sys.Engine().Observe(tracker)
		executed, err := sys.Run(roundCap)
		if err != nil {
			return out, err
		}
		out.composedRounds = float64(executed)
		var bytes float64
		meterRounds := sys.Engine().Meter().Rounds()
		for r := 0; r < meterRounds; r++ {
			base, over := sys.BandwidthByClass(r)
			bytes += float64(base + over)
		}
		out.composedBytes = bytes / float64(meterRounds) / float64(nodes)
		sys.Kill(blast)
		tracker.StopWhenDone = false
		if _, err := sys.Run(healRounds); err != nil {
			return out, err
		}
		m := sys.Oracle().Measure()
		out.composedRing = m.Fraction[core.SubElementary]
		out.composedLinks = m.Fraction[core.SubPortConnect]

		// Monolithic baseline.
		mono, err := baseline.New(nodes, segments, seed)
		if err != nil {
			return out, fmt.Errorf("baseline monolithic run=%d: %w", run, err)
		}
		if o.RoundWorkers != 0 {
			mono.Engine().SetWorkers(o.RoundWorkers)
		}
		rounds, err := mono.RoundsToConverge(roundCap)
		if err != nil {
			return out, err
		}
		out.monoRounds = float64(rounds)
		out.monoBytes = mono.BytesPerNode()
		mono.Kill(blast)
		if _, err := mono.Run(healRounds); err != nil {
			return out, err
		}
		out.monoRing, out.monoLinks = mono.Accuracy()
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var composedRounds, composedBytes, composedRing, composedLinks metrics.Accumulator
	var monoRounds, monoBytes, monoRing, monoLinks metrics.Accumulator
	for _, r := range results {
		composedRounds.Add(r.composedRounds)
		composedBytes.Add(r.composedBytes)
		composedRing.Add(r.composedRing)
		composedLinks.Add(r.composedLinks)
		monoRounds.Add(r.monoRounds)
		monoBytes.Add(r.monoBytes)
		monoRing.Add(r.monoRing)
		monoLinks.Add(r.monoLinks)
	}

	table := metrics.NewTable(
		"approach", "rounds to converge", "bytes/node/round",
		fmt.Sprintf("ring accuracy after %.0f%% blast", blast*100),
		"inter-segment links alive")
	table.AddRow(
		"composed (this framework)",
		metrics.FormatMeanCI(metrics.Summarize(&composedRounds)),
		fmt.Sprintf("%.0f", composedBytes.Mean()),
		fmt.Sprintf("%.3f", composedRing.Mean()),
		fmt.Sprintf("%.3f", composedLinks.Mean()),
	)
	table.AddRow(
		"monolithic overlay (T-Man/Vicinity style)",
		metrics.FormatMeanCI(metrics.Summarize(&monoRounds)),
		fmt.Sprintf("%.0f", monoBytes.Mean()),
		fmt.Sprintf("%.3f", monoRing.Mean()),
		fmt.Sprintf("%.3f", monoLinks.Mean()),
	)
	return &Result{Tables: []*TableResult{{
		ID:    "baseline",
		Title: "Baseline: composed runtime vs. monolithic overlay (ring of 8 rings)",
		Table: table,
		Notes: []string{
			describeScale(o, "%d nodes; blast after convergence, then %d healing rounds", nodes, healRounds),
			"the monolithic distance function cannot re-elect designated boundary nodes, so links lost to the blast stay lost",
		},
	}}}, nil
}
