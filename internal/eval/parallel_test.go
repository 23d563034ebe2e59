package eval

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"sosf/internal/core"
)

// seqAndPar runs the same driver twice on identical options — once with
// Parallelism 1, once with Parallelism 8 — and returns both results.
func seqAndPar[T any](t *testing.T, driver func(Options) (T, error), base Options) (seq, par T) {
	t.Helper()
	oSeq := base
	oSeq.Parallelism = 1
	seq, err := driver(oSeq)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	oPar := base
	oPar.Parallelism = 8
	par, err = driver(oPar)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	return seq, par
}

// TestParallelFiguresDeterministic is the tentpole guarantee: for a fixed
// seed, a figure produced by a pool of one and by an 8-worker
// pool must be identical down to every float bit — parallelism only changes
// scheduling, never results.
func TestParallelFiguresDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps are slow")
	}
	drivers := []struct {
		name string
		run  func(Options) (*Result, error)
		opts Options
	}{
		// Runs are sized per driver so every grid still has width to
		// schedule out of order without the test crawling: curves cells
		// are cheap (3 runs), fig4 cells are uniform (2 runs), churn
		// fans across its 5 rate points even with 1 run each.
		{"curves", Curves, Options{Runs: 3, Seed: 42}},
		{"fig4", Fig4, Options{Runs: 2, Seed: 42}},
		{"churn", Churn, Options{Runs: 1, Seed: 42}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			seq, par := seqAndPar(t, d.run, d.opts)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: parallel output differs from sequential\nseq: %+v\npar: %+v",
					d.name, seq, par)
			}
		})
	}
}

// TestParallelSweepDeterministic covers a multi-point sweep (Fig2's
// node-count sweep is the most scheduling-sensitive driver: cells vary 32x
// in cost, so completion order differs wildly from index order).
func TestParallelSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep is slow")
	}
	seq, par := seqAndPar(t, runSweep("fig2"), Options{Runs: 1, Seed: 7})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fig2: parallel output differs from sequential\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestParallelTablesDeterministic covers a table-producing driver whose
// cells carry early-stop trackers (Gallery stops each run at convergence).
func TestParallelTablesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("gallery is slow")
	}
	seq, par := seqAndPar(t, Gallery, Options{Runs: 1, Seed: 11})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("gallery: parallel output differs from sequential\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestParallelEarlyStopObservers asserts that early-stop observers
// (StopWhenDone trackers) behave identically under parallelism: each
// concurrent engine owns its observer chain, so per-run round counts and
// convergence marks must match the sequential run for run.
func TestParallelEarlyStopObservers(t *testing.T) {
	o := Options{Runs: 4, Seed: 9}
	o = o.withDefaults()
	topo := MustTopology(RingOfRingsDSL(3))
	cell := func(run int) (*RunResult, error) {
		return RunOnce(core.Config{
			Topology: topo,
			Nodes:    200,
			Seed:     seedFor(o.Seed, 0, run),
		}, roundCap, true)
	}

	oSeq := o
	oSeq.Parallelism = 1
	seq, err := runRuns(oSeq, cell)
	if err != nil {
		t.Fatal(err)
	}
	oPar := o
	oPar.Parallelism = 8
	par, err := runRuns(oPar, cell)
	if err != nil {
		t.Fatal(err)
	}
	for run := range seq {
		if seq[run].Rounds != par[run].Rounds {
			t.Fatalf("run %d: early stop at %d rounds sequentially, %d in parallel",
				run, seq[run].Rounds, par[run].Rounds)
		}
		if !reflect.DeepEqual(seq[run].ConvergedAt, par[run].ConvergedAt) {
			t.Fatalf("run %d: convergence marks differ: %v vs %v",
				run, seq[run].ConvergedAt, par[run].ConvergedAt)
		}
		if seq[run].Rounds >= roundCap {
			t.Fatalf("run %d: never stopped early (%d rounds); test is vacuous", run, seq[run].Rounds)
		}
	}
}

// TestRunGridIndexAddressing checks the pool's core contract directly:
// every cell lands in its own grid slot regardless of worker count.
func TestRunGridIndexAddressing(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		o := Options{Runs: 7, Parallelism: workers}
		grid, err := runGrid(o, 5, func(p, r int) (string, error) {
			return fmt.Sprintf("%d/%d", p, r), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(grid) != 5 {
			t.Fatalf("workers=%d: points = %d", workers, len(grid))
		}
		for p := range grid {
			if len(grid[p]) != 7 {
				t.Fatalf("workers=%d: runs = %d", workers, len(grid[p]))
			}
			for r, v := range grid[p] {
				if want := fmt.Sprintf("%d/%d", p, r); v != want {
					t.Fatalf("workers=%d: grid[%d][%d] = %q, want %q", workers, p, r, v, want)
				}
			}
		}
	}
}

// TestRunGridError checks that a failing cell surfaces its error, stops the
// pool from starting new cells, and never panics the workers.
func TestRunGridError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	for _, workers := range []int{1, 4} {
		o := Options{Runs: 10, Parallelism: workers}
		started.Store(0)
		_, err := runGrid(o, 10, func(p, r int) (int, error) {
			started.Add(1)
			if p == 3 && r == 4 {
				return 0, boom
			}
			return p * r, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
		if workers == 1 {
			// Sequential mode fails fast: cells after the failing one
			// (index 34) never start.
			if n := started.Load(); n != 35 {
				t.Fatalf("sequential started %d cells, want 35", n)
			}
		}
	}
}

// TestRunGridZeroCells covers the empty-grid edge (no points or no runs).
func TestRunGridZeroCells(t *testing.T) {
	o := Options{Runs: 3, Parallelism: 4}
	grid, err := runGrid(o, 0, func(p, r int) (int, error) {
		t.Fatal("cell called for empty grid")
		return 0, nil
	})
	if err != nil || len(grid) != 0 {
		t.Fatalf("empty grid: %v, %d points", err, len(grid))
	}
}

// TestOptionsParallelismDefault pins the documented defaulting: 0 means
// GOMAXPROCS, explicit values survive.
func TestOptionsParallelismDefault(t *testing.T) {
	if got := (Options{}).withDefaults().Parallelism; got < 1 {
		t.Fatalf("default Parallelism = %d, want >= 1", got)
	}
	if got := (Options{Parallelism: 1}).withDefaults().Parallelism; got != 1 {
		t.Fatalf("Parallelism 1 rewritten to %d", got)
	}
	if got := (Options{Parallelism: 3}).withDefaults().Parallelism; got != 3 {
		t.Fatalf("Parallelism 3 rewritten to %d", got)
	}
}

// TestOptionsSeedZeroKept: 0 is a seed like any other, not a request for
// the default.
func TestOptionsSeedZeroKept(t *testing.T) {
	if got := (Options{Seed: 0}).withDefaults().Seed; got != 0 {
		t.Fatalf("Seed 0 rewritten to %d", got)
	}
}
