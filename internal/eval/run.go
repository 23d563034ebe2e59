package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sosf/internal/core"
	"sosf/internal/metrics"
	"sosf/internal/sim"
	"sosf/internal/spec"
)

// Options scale the experiment harness.
type Options struct {
	// Runs is the number of independent repetitions per data point
	// (default 5; the paper uses 25, enabled by Full).
	Runs int
	// Seed is the base seed, 0 included; run r of a driver uses Seed + r
	// (and sweeps fold their point index in).
	Seed int64
	// Full switches every driver to the paper's exact scales (25 600
	// nodes, 25 runs). Without it, drivers use laptop-friendly scales
	// that preserve every trend.
	Full bool
	// RoundWorkers shards each simulation round across this many workers
	// (counter-based per-node RNG streams keep the results byte-identical
	// for every value; see sim.Engine.SetWorkers). 0 — the default — keeps
	// rounds serial: the harness already fans independent runs across
	// Parallelism goroutines, so intra-round workers pay off for single
	// large simulations, not for grids of small ones. Negative selects
	// GOMAXPROCS per round.
	RoundWorkers int
	// Parallelism bounds the worker pool that fans independent
	// (sweep point, run) simulations across goroutines. Every cell of the
	// grid owns its engine and derives its seed from (Seed, point, run)
	// alone, and drivers gather results into index-addressed storage
	// before aggregating in index order — so any Parallelism value
	// produces byte-identical figures and tables. 0 (the default) means
	// runtime.GOMAXPROCS(0); 1 is a pool of one, running the cells
	// sequentially in index order.
	Parallelism int
}

// roundCap caps each run of the harness; the drivers report a run that has
// not converged by then as capped at this many rounds.
const roundCap = 150

// config is a hand-written driver's cell configuration: topology,
// population and seed vary per cell, RoundWorkers does not. A sweep row
// sets the same seed and workers on its point's configuration.
func (o Options) config(topo *spec.Topology, nodes int, seed int64) core.Config {
	return core.Config{Topology: topo, Nodes: nodes, Seed: seed, Workers: o.RoundWorkers}
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		if o.Full {
			o.Runs = 25
		} else {
			o.Runs = 5
		}
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// runGrid executes cell(point, run) for every pair of the
// [0, points) × [0, o.Runs) grid and returns the results addressed as
// out[point][run]. Cells are claimed in index order from a shared counter by
// a pool of o.Parallelism workers; because each cell is a fully independent
// simulation (own engine, own seed) and results land in their grid slot
// rather than a completion-ordered append, callers that fold out[...] in
// index order produce byte-identical output at every pool size. On error the
// pool drains without starting new cells and the error of the
// lowest-indexed failed cell is returned.
func runGrid[T any](o Options, points int, cell func(point, run int) (T, error)) ([][]T, error) {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, o.Runs)
	}
	total := points * o.Runs
	workers := o.Parallelism
	if workers > total {
		workers = total
	}
	errs := make([]error, total)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || failed.Load() {
					return
				}
				p, r := i/o.Runs, i%o.Runs
				v, err := cell(p, r)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[p][r] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runRuns is runGrid for single-point drivers: o.Runs independent
// repetitions of one configuration.
func runRuns[T any](o Options, cell func(run int) (T, error)) ([]T, error) {
	grid, err := runGrid(o, 1, func(_, run int) (T, error) { return cell(run) })
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// Figure is one reproduced figure: titled series over a shared x-axis,
// with rendering hints and free-form notes.
type Figure struct {
	ID     string // "fig2", "fig4", "ablation-uo2", ...
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	Series []*metrics.Series
	Notes  []string
}

// Table renders the figure's series as an aligned text table.
func (f *Figure) Table() *metrics.Table {
	return metrics.SeriesTable(f.XLabel, f.Series...)
}

// TableResult is a table-shaped experiment output.
type TableResult struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// Result bundles everything a driver produced.
type Result struct {
	Figures []*Figure
	Tables  []*TableResult
}

// RunResult captures one simulation run for the harness.
type RunResult struct {
	// Rounds executed.
	Rounds int
	// ConvergedAt holds, per sub-procedure, the first round it reached
	// accuracy 1.0, or -1 if it never did.
	ConvergedAt [core.NumSubs]int
	// Curves holds the per-round accuracy of each sub-procedure.
	Curves [core.NumSubs][]float64
	// BaselinePerNode and OverheadPerNode are bytes per node per round
	// for the two bandwidth classes of Figure 4.
	BaselinePerNode []float64
	OverheadPerNode []float64
	// Final is the last measured metrics snapshot.
	Final core.Metrics
}

// recorder is a convergence tracker plus the metrics of every round it
// measured: the per-round accuracy curves the figures plot. Its owner's
// round-end hook calls record.
type recorder struct {
	tracker *core.Tracker
	history []core.Metrics
}

// newRecorder builds a recorder over sys with its history pre-sized for
// rounds rounds.
func newRecorder(sys *core.System, rounds int) *recorder {
	return &recorder{
		tracker: core.NewTracker(sys),
		history: make([]core.Metrics, 0, rounds),
	}
}

// record measures the round just ended and appends it to the history.
func (r *recorder) record() {
	r.tracker.Update()
	r.history = append(r.history, r.tracker.Last)
}

// RunOnce builds a system from cfg and runs it for at most maxRounds,
// stopping early (if stopWhenDone) once every sub-procedure converged.
// History and meter storage are pre-sized to the round budget, so the run
// itself appends without reallocating — repeated across a sweep grid, the
// growth-chain garbage the drivers used to shed is gone.
func RunOnce(cfg core.Config, maxRounds int, stopWhenDone bool) (*RunResult, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(sys, maxRounds)
	sys.Engine().SetRoundEnd(func(*sim.Engine) bool {
		rec.record()
		return stopWhenDone && rec.tracker.Last.AllConverged()
	})
	sys.Engine().Meter().Reserve(maxRounds)
	rounds, err := sys.Run(maxRounds)
	if err != nil {
		return nil, err
	}
	return collect(sys, rec, rounds), nil
}

// collect assembles a RunResult from a finished (or mid-flight) system.
func collect(sys *core.System, rec *recorder, rounds int) *RunResult {
	res := &RunResult{
		Rounds:      rounds,
		ConvergedAt: rec.tracker.FirstDone,
		Final:       rec.tracker.Last,
	}
	for sub := range res.Curves {
		curve := make([]float64, 0, len(rec.history))
		for _, m := range rec.history {
			curve = append(curve, m.Fraction[sub])
		}
		res.Curves[sub] = curve
	}
	n := float64(sys.Engine().AliveCount())
	if n == 0 {
		n = 1
	}
	meterRounds := sys.Engine().Meter().Rounds()
	res.BaselinePerNode = make([]float64, 0, meterRounds)
	res.OverheadPerNode = make([]float64, 0, meterRounds)
	for r := 0; r < meterRounds; r++ {
		base, over := sys.BandwidthByClass(r)
		res.BaselinePerNode = append(res.BaselinePerNode, float64(base)/n)
		res.OverheadPerNode = append(res.OverheadPerNode, float64(over)/n)
	}
	return res
}

// subSeries allocates one series per sub-procedure, indexed by Sub,
// pre-sized for the given number of points.
func subSeries(points int) [core.NumSubs]*metrics.Series {
	var out [core.NumSubs]*metrics.Series
	for _, sub := range core.Subs() {
		out[sub] = &metrics.Series{Name: sub.String()}
		out[sub].Reserve(points)
	}
	return out
}

// seedFor derives a deterministic per-(point, run) seed.
func seedFor(base int64, point, run int) int64 {
	return base + int64(point)*1_000_003 + int64(run)*7919
}

// describeScale renders a scale note for figure annotations.
func describeScale(o Options, format string, args ...any) string {
	mode := "reduced scale"
	if o.Full {
		mode = "paper scale"
	}
	return fmt.Sprintf("%s; %d runs per point (%s)", fmt.Sprintf(format, args...), o.Runs, mode)
}
