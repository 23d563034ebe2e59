package sosf

// One benchmark per reproduced table/figure, driving the same
// internal/eval code paths as cmd/sosbench, at a reduced-but-meaningful
// scale (one repetition per point; `sosbench -full` runs the paper's exact
// 25 600-node, 25-run setup).
//
// Per-op work is a full experiment, so op counts stay at b.N=1 in
// practice; the value of these benchmarks is (a) a stable regression
// signal on end-to-end runtime and allocations and (b) a single command —
// `go test -bench=. -benchmem` — that regenerates every figure's pipeline.

import (
	"fmt"
	"testing"

	"sosf/internal/core"
	"sosf/internal/eval"
)

// benchOpts returns harness options sized for benchmarking. Parallelism
// is left at its default (GOMAXPROCS), matching how sosbench runs.
func benchOpts(seed int64) eval.Options {
	return eval.Options{Runs: 1, Seed: seed}
}

// cmpOpts returns options for the sequential-vs-parallel benchmark pairs:
// enough repetitions per point that the grid has real width to fan out.
func cmpOpts(seed int64, parallelism int) eval.Options {
	return eval.Options{Runs: 4, Seed: seed, Parallelism: parallelism}
}

// evalDriver returns the Run of the eval driver named id.
func evalDriver(b *testing.B, id string) func(eval.Options) (*eval.Result, error) {
	for _, d := range eval.Drivers {
		if d.ID == id {
			return d.Run
		}
	}
	b.Fatalf("no eval driver %q", id)
	return nil
}

// BenchmarkFig2Sequential / BenchmarkFig2Parallel regenerate Figure 2's
// sweep with a pool of one and with a GOMAXPROCS-wide worker pool. The outputs are byte-identical (see TestParallelSweepDeterministic);
// on an N-core machine the parallel variant's wall clock is the speedup
// headline of eval.Options.Parallelism.
func BenchmarkFig2Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "fig2")(cmpOpts(int64(i)+1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "fig2")(cmpOpts(int64(i)+1, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Sequential / BenchmarkFig4Parallel are the uniform-cell
// pair: Figure 4 runs identical-cost repetitions of one configuration, so
// its parallel speedup approaches min(Runs, cores) with no sweep skew.
func BenchmarkFig4Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "fig4")(cmpOpts(int64(i)+1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "fig4")(cmpOpts(int64(i)+1, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ConvergenceVsNodes regenerates Figure 2 (rounds to converge
// vs. population size, 20 components, log sweep).
func BenchmarkFig2ConvergenceVsNodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := evalDriver(b, "fig2")(benchOpts(int64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures[0].Series) != 5 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig3ConvergenceVsComponents regenerates Figure 3 (rounds to
// converge vs. number of components at fixed population).
func BenchmarkFig3ConvergenceVsComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := evalDriver(b, "fig3")(benchOpts(int64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures[0].Series) != 5 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFig4Bandwidth regenerates Figure 4 (baseline vs. runtime
// overhead bandwidth per round).
func BenchmarkFig4Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := evalDriver(b, "fig4")(benchOpts(int64(i) + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures[0].Series) != 2 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkGalleryTopologies regenerates experiment (i): the composite
// topology gallery table.
func BenchmarkGalleryTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Gallery(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCurvesRingOfRings regenerates experiment (ii): per-round
// accuracy of every sub-procedure in a ring of rings.
func BenchmarkCurvesRingOfRings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Curves(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconfiguration regenerates experiment (iii): live topology
// evolution (3 rings -> 4 rings).
func BenchmarkReconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Reconfig(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurn regenerates the churn extension (steady-state accuracy
// across churn rates).
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Churn(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatastrophe regenerates the catastrophic-failure extension
// (recovery after mass failures).
func BenchmarkCatastrophe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Catastrophe(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUO2 regenerates the UO2 ablation (port connection with
// and without the distant-component overlay).
func BenchmarkAblationUO2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "ablation-uo2")(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRandomness regenerates the randomness ablation
// (full protocol vs. pure greedy T-Man).
func BenchmarkAblationRandomness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := evalDriver(b, "ablation-randomness")(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRound measures one steady-state simulated round of the full
// runtime stack (peer sampling, UO1, UO2, core overlay, port selection,
// port connection) across a population sweep. It is the population-scaling
// headline of the allocation-free hot path: run with -benchmem to read
// allocs/op (`-bench 'BenchmarkRound/n=1M' -benchtime 3x` is the
// million-node command).
//
// The system is warmed past convergence before the timer starts, so the
// measured rounds are steady-state gossip — the regime a long-lived
// deployment spends its life in.
func BenchmarkRound(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000, 1_000_000} {
		name := fmt.Sprintf("n=%dk", n/1000)
		if n >= 1_000_000 {
			name = fmt.Sprintf("n=%dM", n/1_000_000)
		}
		n := n
		b.Run(name, func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("million-node population skipped in -short mode")
			}
			benchRound(b, n, 1)
		})
	}
}

// BenchmarkRoundWorkers is BenchmarkRound across intra-round worker counts:
// the round results are byte-identical at every width (the per-node RNG
// streams guarantee it), so the only thing that moves is ns/op — and only
// as far as the machine has cores.
func BenchmarkRoundWorkers(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%dk/workers=%d", n/1000, w), func(b *testing.B) {
				benchRound(b, n, w)
			})
		}
	}
}

// roundSystem builds the full-stack ring of rings (20 components) that
// BenchmarkRound and TestMillionNodeRound step.
func roundSystem(tb testing.TB, nodes, workers int) *core.System {
	tb.Helper()
	sys, err := core.NewSystem(core.Config{
		Topology: eval.MustTopology(eval.RingOfRingsDSL(20)),
		Nodes:    nodes,
		Seed:     1,
		Workers:  workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func benchRound(b *testing.B, nodes, workers int) {
	b.Helper()
	sys := roundSystem(b, nodes, workers)
	if _, err := sys.Run(10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationRound measures the cost of one simulated round of the
// full stack at 3 200 nodes / 20 components — the engine's inner loop.
func BenchmarkSimulationRound(b *testing.B) {
	sys, err := core.NewSystem(core.Config{
		Topology: eval.MustTopology(eval.RingOfRingsDSL(20)),
		Nodes:    3200,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineComparison regenerates the composed-vs-monolithic
// baseline table (the comparator of the paper's Section 2.2).
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Baseline(benchOpts(int64(i) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}
