package eval

import (
	"fmt"

	"sosf/internal/core"
	"sosf/internal/metrics"
	"sosf/internal/spec"
)

// AblationUO2 compares port-connection convergence with and without the
// distant-component overlay: without UO2, managers can only find remote
// components through chance encounters in the peer-sampling view, which
// degrades as components multiply — the design reason UO2 exists.
func AblationUO2(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodes := 1000
	if o.Full {
		nodes = 4800
	}
	compSweep := []int{2, 5, 10, 15, 20}

	topos := make([]*spec.Topology, len(compSweep))
	for pi, comps := range compSweep {
		topos[pi] = MustTopology(RingOfRingsDSL(comps))
	}
	// The grid interleaves the two variants: point 2*pi+variant, so each
	// (sweep point, variant, run) simulation is an independent cell.
	grid, err := runGrid(o, 2*len(compSweep), func(p, run int) (float64, error) {
		pi, variant := p/2, p%2
		cfg := o.config(topos[pi], nodes, seedFor(o.Seed, 800+pi, run))
		cfg.DisableUO2 = variant == 1
		res, err := RunOnce(cfg, roundCap, true)
		if err != nil {
			return 0, fmt.Errorf("ablation-uo2 comps=%d: %w", compSweep[pi], err)
		}
		return convergedOrCap(res, core.SubPortConnect, roundCap), nil
	})
	if err != nil {
		return nil, err
	}
	with := &metrics.Series{Name: "with UO2"}
	without := &metrics.Series{Name: "without UO2 (ablated)"}
	for pi, comps := range compSweep {
		for variant, series := range []*metrics.Series{with, without} {
			var acc metrics.Accumulator
			for _, v := range grid[2*pi+variant] {
				acc.Add(v)
			}
			series.Append(float64(comps), metrics.Summarize(&acc))
		}
	}
	return &Figure{
		ID:     "ablation-uo2",
		Title:  "Ablation: port connection with vs. without UO2",
		XLabel: "# of Components",
		YLabel: "rounds until all links established",
		Series: []*metrics.Series{with, without},
		Notes: []string{
			describeScale(o, "%d nodes; ring-of-rings", nodes),
			fmt.Sprintf("runs that never converge are capped at %d rounds", roundCap),
		},
	}, nil
}

// AblationRandomness compares the full protocol against the pure-greedy
// variant (no random candidate feed, no random contacts): Vicinity's
// "pinch of randomness" is what guarantees progress out of local minima.
func AblationRandomness(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodesSweep := []int{100, 200, 400, 800}
	if o.Full {
		nodesSweep = append(nodesSweep, 1600, 3200)
	}
	const comps = 4
	topo := MustTopology(RingOfRingsDSL(comps))

	grid, err := runGrid(o, 2*len(nodesSweep), func(p, run int) (float64, error) {
		pi, variant := p/2, p%2
		cfg := o.config(topo, nodesSweep[pi], seedFor(o.Seed, 900+pi, run))
		cfg.PureGreedy = variant == 1
		res, err := RunOnce(cfg, roundCap, true)
		if err != nil {
			return 0, fmt.Errorf("ablation-randomness n=%d: %w", nodesSweep[pi], err)
		}
		return convergedOrCap(res, core.SubElementary, roundCap), nil
	})
	if err != nil {
		return nil, err
	}
	randomized := &metrics.Series{Name: "with random feed"}
	greedy := &metrics.Series{Name: "pure greedy (ablated)"}
	for pi, n := range nodesSweep {
		for variant, series := range []*metrics.Series{randomized, greedy} {
			var acc metrics.Accumulator
			for _, v := range grid[2*pi+variant] {
				acc.Add(v)
			}
			series.Append(float64(n), metrics.Summarize(&acc))
		}
	}
	return &Figure{
		ID:     "ablation-randomness",
		Title:  "Ablation: elementary-shape convergence with vs. without randomness",
		XLabel: "# of Nodes",
		YLabel: "rounds until shapes converge",
		LogX:   true,
		Series: []*metrics.Series{randomized, greedy},
		Notes: []string{
			describeScale(o, "ring-of-rings, %d components", comps),
			fmt.Sprintf("runs that never converge are capped at %d rounds", roundCap),
		},
	}, nil
}

// AblationGossip sweeps the per-exchange descriptor budget: bigger gossip
// messages buy faster convergence at proportional bandwidth cost — the
// central tuning knob of every T-Man-family protocol.
func AblationGossip(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodes, comps := 800, 4
	if o.Full {
		nodes = 3200
	}
	topo := MustTopology(RingOfRingsDSL(comps))
	sweep := []int{2, 3, 5, 8, 12}

	grid, err := runGrid(o, len(sweep), func(pi, run int) (*RunResult, error) {
		cfg := o.config(topo, nodes, seedFor(o.Seed, 1000+pi, run))
		cfg.OverlayGossip = sweep[pi]
		res, err := RunOnce(cfg, roundCap, true)
		if err != nil {
			return nil, fmt.Errorf("ablation-gossip g=%d: %w", sweep[pi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rounds := &metrics.Series{Name: "rounds to converge"}
	bandwidth := &metrics.Series{Name: "bytes/node/round (x100)"}
	for pi, g := range sweep {
		var accR, accB metrics.Accumulator
		for _, res := range grid[pi] {
			accR.Add(convergedOrCap(res, core.SubElementary, roundCap))
			var sum float64
			for r := range res.BaselinePerNode {
				sum += res.BaselinePerNode[r] + res.OverheadPerNode[r]
			}
			if n := len(res.BaselinePerNode); n > 0 {
				accB.Add(sum / float64(n) / 100)
			}
		}
		rounds.Append(float64(g), metrics.Summarize(&accR))
		bandwidth.Append(float64(g), metrics.Summarize(&accB))
	}
	return &Figure{
		ID:     "ablation-gossip",
		Title:  "Ablation: gossip message size vs. convergence and bandwidth",
		XLabel: "descriptors per exchange",
		YLabel: "rounds / (bytes per node per round x 0.01)",
		Series: []*metrics.Series{rounds, bandwidth},
		Notes:  []string{describeScale(o, "ring-of-rings, %d nodes, %d components", nodes, comps)},
	}, nil
}

// AblationViewSize sweeps the UO1 view capacity: the same-component
// overlay must be large enough to keep each component's gossip substrate
// connected, but extra capacity mostly costs bandwidth.
func AblationViewSize(o Options) (*Figure, error) {
	o = o.withDefaults()
	nodes, comps := 800, 4
	if o.Full {
		nodes = 3200
	}
	topo := MustTopology(RingOfRingsDSL(comps))
	sweep := []int{3, 5, 8, 12, 16}

	grid, err := runGrid(o, len(sweep), func(pi, run int) (*RunResult, error) {
		cfg := o.config(topo, nodes, seedFor(o.Seed, 1100+pi, run))
		cfg.UO1Capacity = sweep[pi]
		res, err := RunOnce(cfg, roundCap, true)
		if err != nil {
			return nil, fmt.Errorf("ablation-viewsize k=%d: %w", sweep[pi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	elem := &metrics.Series{Name: "Elementary Topology"}
	ports := &metrics.Series{Name: "Port Selection"}
	for pi, k := range sweep {
		var accE, accP metrics.Accumulator
		for _, res := range grid[pi] {
			accE.Add(convergedOrCap(res, core.SubElementary, roundCap))
			accP.Add(convergedOrCap(res, core.SubPortSelect, roundCap))
		}
		elem.Append(float64(k), metrics.Summarize(&accE))
		ports.Append(float64(k), metrics.Summarize(&accP))
	}
	return &Figure{
		ID:     "ablation-viewsize",
		Title:  "Ablation: UO1 view capacity vs. convergence",
		XLabel: "UO1 view capacity",
		YLabel: "rounds to converge",
		Series: []*metrics.Series{elem, ports},
		Notes:  []string{describeScale(o, "ring-of-rings, %d nodes, %d components", nodes, comps)},
	}, nil
}
