package eval

import (
	"fmt"
	"strconv"

	"sosf/internal/core"
	"sosf/internal/metrics"
	"sosf/internal/sim"
	"sosf/internal/spec"
)

// Gallery runs experiment (i): building various topologies comparable to
// those used in real-world applications, reporting how fast each composite
// converges and whether the realized system is one connected piece.
func Gallery(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes := 480
	if o.Full {
		nodes = 4800
	}
	entries := GalleryEntries()
	topos := make([]*spec.Topology, len(entries))
	for gi, entry := range entries {
		topos[gi] = MustTopology(entry.DSL)
	}
	type galleryRun struct {
		rounds, accuracy float64
		connected        bool
	}
	grid, err := runGrid(o, len(entries), func(gi, run int) (galleryRun, error) {
		sys, err := core.NewSystem(o.config(topos[gi], nodes, seedFor(o.Seed, 300+gi, run)))
		if err != nil {
			return galleryRun{}, fmt.Errorf("gallery %s: %w", entries[gi].Name, err)
		}
		tracker := core.NewTracker(sys, true)
		sys.Engine().Observe(tracker)
		executed, err := sys.Run(roundCap)
		if err != nil {
			return galleryRun{}, fmt.Errorf("gallery %s: %w", entries[gi].Name, err)
		}
		g := sys.Oracle().RealizedGraph()
		return galleryRun{
			rounds:    float64(executed),
			accuracy:  tracker.Last.Fraction[core.SubElementary],
			connected: g.ConnectedOver(sys.Engine().AliveSlots()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		"topology", "nodes", "components", "links",
		"rounds to converge", "final accuracy", "connected")
	for gi, entry := range entries {
		var rounds metrics.Accumulator
		var accuracy metrics.Accumulator
		connected := true
		for _, r := range grid[gi] {
			rounds.Add(r.rounds)
			accuracy.Add(r.accuracy)
			if !r.connected {
				connected = false
			}
		}
		table.AddRow(
			entry.Name,
			strconv.Itoa(nodes),
			strconv.Itoa(len(topos[gi].Components)),
			strconv.Itoa(len(topos[gi].Links)),
			metrics.FormatMeanCI(metrics.Summarize(&rounds)),
			fmt.Sprintf("%.3f", accuracy.Mean()),
			strconv.FormatBool(connected),
		)
	}
	return &Result{Tables: []*TableResult{{
		ID:    "gallery",
		Title: "Experiment (i): composite topology gallery",
		Table: table,
		Notes: []string{describeScale(o, "%d nodes per topology", nodes)},
	}}}, nil
}

// Curves runs experiment (ii): the per-round accuracy of every
// sub-procedure while a ring-of-rings self-assembles from nothing.
func Curves(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes, comps, rounds := 800, 8, 40
	if o.Full {
		nodes, rounds = 3200, 60
	}
	topo := MustTopology(RingOfRingsDSL(comps))

	results, err := runRuns(o, func(run int) (*RunResult, error) {
		res, err := RunOnce(o.config(topo, nodes, seedFor(o.Seed, 400, run)), rounds, false)
		if err != nil {
			return nil, fmt.Errorf("curves run=%d: %w", run, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	var perSub [core.NumSubs][][]float64
	for _, res := range results {
		for _, sub := range core.Subs() {
			perSub[sub] = append(perSub[sub], res.Curves[sub])
		}
	}
	series := subSeries(rounds)
	for _, sub := range core.Subs() {
		for r, s := range metrics.AggregateRuns(perSub[sub]) {
			series[sub].Append(float64(r+1), s)
		}
	}
	return &Result{Figures: []*Figure{{
		ID:     "curves",
		Title:  fmt.Sprintf("Exp (ii): sub-procedure accuracy over time (ring of %d rings)", comps),
		XLabel: "Round",
		YLabel: "accuracy (fraction converged)",
		Series: series[:],
		Notes:  []string{describeScale(o, "%d nodes, %d components", nodes, comps)},
	}}}, nil
}

// Reconfig runs experiment (iii): the system converges as a ring of 3
// rings, then the specification is changed to 4 rings mid-run; the figure
// shows accuracy dipping and re-converging, and the table reports the
// re-convergence time.
func Reconfig(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes := 600
	if o.Full {
		nodes = 4800
	}
	const switchRound = 40
	phase2 := roundCap

	before := MustTopology(RingOfRingsDSL(3))
	after := MustTopology(RingOfRingsDSL(4))
	type reconfigRun struct {
		elem, conn  []float64
		reconverged bool
		reconvAt    float64
	}
	results, err := runRuns(o, func(run int) (reconfigRun, error) {
		sys, err := core.NewSystem(o.config(before, nodes, seedFor(o.Seed, 500, run)))
		if err != nil {
			return reconfigRun{}, fmt.Errorf("reconfig run=%d: %w", run, err)
		}
		rec := newRecorder(sys, false, switchRound+phase2)
		if _, err := sys.Run(switchRound); err != nil {
			return reconfigRun{}, err
		}
		// The switch follows round switchRound's measurement, so that
		// round still shows the old shape.
		if err := sys.Reconfigure(after); err != nil {
			return reconfigRun{}, fmt.Errorf("reconfig run=%d: %w", run, err)
		}
		// Re-convergence is measured from the switch; reset the marks but
		// keep recording the full curves.
		rec.tracker.Reset()
		rec.tracker.StopWhenDone = true
		reconvAt, err := sys.Run(phase2)
		if err != nil {
			return reconfigRun{}, err
		}

		out := reconfigRun{
			elem: make([]float64, 0, len(rec.history)),
			conn: make([]float64, 0, len(rec.history)),
		}
		for _, m := range rec.history {
			out.elem = append(out.elem, m.Fraction[core.SubElementary])
			out.conn = append(out.conn, m.Fraction[core.SubPortConnect])
		}
		out.reconverged = rec.tracker.Last.AllConverged()
		out.reconvAt = float64(reconvAt)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	elems := make([][]float64, 0, o.Runs)
	conns := make([][]float64, 0, o.Runs)
	var reconv metrics.Accumulator
	never := 0
	for _, r := range results {
		elems = append(elems, r.elem)
		conns = append(conns, r.conn)
		if r.reconverged {
			reconv.Add(r.reconvAt)
		} else {
			never++
		}
	}

	elemSeries := &metrics.Series{Name: "Elementary Topology"}
	for r, s := range metrics.AggregateRuns(elems) {
		elemSeries.Append(float64(r+1), s)
	}
	connSeries := &metrics.Series{Name: "Port Connection"}
	for r, s := range metrics.AggregateRuns(conns) {
		connSeries.Append(float64(r+1), s)
	}
	fig := &Figure{
		ID:     "reconfig",
		Title:  "Exp (iii): live reconfiguration, 3 rings -> 4 rings",
		XLabel: "Round",
		YLabel: "accuracy (fraction converged)",
		Series: []*metrics.Series{elemSeries, connSeries},
		Notes: []string{
			describeScale(o, "%d nodes; topology switched at round %d", nodes, switchRound),
		},
	}
	table := metrics.NewTable("metric", "value")
	table.AddRow("rounds to re-converge after switch", metrics.FormatMeanCI(metrics.Summarize(&reconv)))
	table.AddRow("runs that failed to re-converge", strconv.Itoa(never))
	return &Result{
		Figures: []*Figure{fig},
		Tables: []*TableResult{{
			ID:    "reconfig-summary",
			Title: "Experiment (iii): re-convergence summary",
			Table: table,
		}},
	}, nil
}

// Churn measures steady-state accuracy under continuous node churn, an
// extension beyond the paper's static runs (its protocols are built for
// exactly this, per the self-organizing overlay literature it builds on).
func Churn(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes, comps, warm, window := 600, 4, 40, 30
	if o.Full {
		nodes = 4800
	}
	topo := MustTopology(RingOfRingsDSL(comps))
	rates := []float64{0.001, 0.005, 0.01, 0.02, 0.05}

	type churnRun struct {
		e, u, p []float64
	}
	grid, err := runGrid(o, len(rates), func(pi, run int) (churnRun, error) {
		sys, err := core.NewSystem(o.config(topo, nodes, seedFor(o.Seed, 600+pi, run)))
		if err != nil {
			return churnRun{}, fmt.Errorf("churn rate=%f run=%d: %w", rates[pi], run, err)
		}
		// Continuous churn replaces a fraction of the population after
		// every round, the first time after round 1, as sosf.WithChurn
		// does; the recorder measures the post-churn state.
		sys.Engine().Observe(sim.ObserverFunc(func(*sim.Engine) bool {
			sys.Churn(rates[pi])
			return false
		}))
		rec := newRecorder(sys, false, warm+window)
		if _, err := sys.Run(warm + window); err != nil {
			return churnRun{}, err
		}
		var out churnRun
		for _, m := range rec.history[warm:] {
			out.e = append(out.e, m.Fraction[core.SubElementary])
			out.u = append(out.u, m.Fraction[core.SubUO1])
			out.p = append(out.p, m.Fraction[core.SubPortSelect])
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	elem := &metrics.Series{Name: "Elementary Topology"}
	uo1 := &metrics.Series{Name: "Same-component (UO1)"}
	ports := &metrics.Series{Name: "Port Selection"}
	for pi, rate := range rates {
		var accE, accU, accP metrics.Accumulator
		for _, r := range grid[pi] {
			for i := range r.e {
				accE.Add(r.e[i])
				accU.Add(r.u[i])
				accP.Add(r.p[i])
			}
		}
		x := rate * 100
		elem.Append(x, metrics.Summarize(&accE))
		uo1.Append(x, metrics.Summarize(&accU))
		ports.Append(x, metrics.Summarize(&accP))
	}
	return &Result{Figures: []*Figure{{
		ID:     "churn",
		Title:  "Extension: steady-state accuracy under continuous churn",
		XLabel: "churn (% of nodes replaced per round)",
		YLabel: "mean accuracy",
		Series: []*metrics.Series{elem, uo1, ports},
		Notes: []string{
			describeScale(o, "%d nodes, %d components; accuracy averaged over rounds %d..%d",
				nodes, comps, warm, warm+window),
		},
	}}}, nil
}

// Catastrophe measures recovery from massive simultaneous failures (the
// paper cites Polystyrene [4]): after convergence, a fraction of all nodes
// is killed at once; the table reports the shape accuracy right after the
// blast, the self-healed accuracy, and the rounds to heal.
func Catastrophe(o Options) (*Result, error) {
	o = o.withDefaults()
	nodes, comps := 600, 4
	if o.Full {
		nodes = 4800
	}
	topo := MustTopology(RingOfRingsDSL(comps))
	fractions := []float64{0.1, 0.3, 0.5, 0.7}

	type catastropheRun struct {
		after, healed, healRounds float64
	}
	grid, err := runGrid(o, len(fractions), func(pi, run int) (catastropheRun, error) {
		f := fractions[pi]
		sys, err := core.NewSystem(o.config(topo, nodes, seedFor(o.Seed, 700+pi, run)))
		if err != nil {
			return catastropheRun{}, fmt.Errorf("catastrophe f=%f run=%d: %w", f, run, err)
		}
		tracker := core.NewTracker(sys, true)
		sys.Engine().Observe(tracker)
		if _, err := sys.Run(roundCap); err != nil {
			return catastropheRun{}, err
		}
		sys.Kill(f)
		out := catastropheRun{
			after: sys.Oracle().Measure().Fraction[core.SubElementary],
		}
		recovered := roundCap
		for r := 0; r < roundCap; r++ {
			if _, err := sys.Run(1); err != nil {
				return catastropheRun{}, err
			}
			if tracker.Last.Fraction[core.SubElementary] >= 0.95 {
				recovered = r + 1
				break
			}
		}
		out.healRounds = float64(recovered)
		out.healed = tracker.Last.Fraction[core.SubElementary]
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable(
		"killed", "accuracy after blast", "self-healed accuracy", "rounds to heal >= 0.95")
	for pi, f := range fractions {
		var after, healed, healRounds metrics.Accumulator
		for _, r := range grid[pi] {
			after.Add(r.after)
			healed.Add(r.healed)
			healRounds.Add(r.healRounds)
		}
		table.AddRow(
			fmt.Sprintf("%.0f%%", f*100),
			fmt.Sprintf("%.3f", after.Mean()),
			fmt.Sprintf("%.3f", healed.Mean()),
			metrics.FormatMeanCI(metrics.Summarize(&healRounds)),
		)
	}
	return &Result{Tables: []*TableResult{{
		ID:    "catastrophe",
		Title: "Extension: recovery from catastrophic failures",
		Table: table,
		Notes: []string{
			describeScale(o, "%d nodes, %d components; blast after full convergence", nodes, comps),
			"healing here is pure self-organization; a reconfiguration epoch restores the exact shape",
		},
	}}}, nil
}
