package eval

import (
	"os"
	"path/filepath"
	"testing"

	"sosf/internal/core"
)

// TestRunOnceCheckpointWritesRestorableState: a sweep cell's checkpoint
// must reload into a runnable system positioned exactly where the cell
// finished — the warm-start contract behind Options.CheckpointDir.
func TestRunOnceCheckpointWritesRestorableState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.sosnap")
	cfg := core.Config{
		Topology: MustTopology(RingOfRingsDSL(3)),
		Nodes:    120,
		Seed:     11,
	}
	res, err := RunOnceCheckpoint(cfg, 40, true, path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sys, err := core.RestoreSystem(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().Round(); got != res.Rounds {
		t.Fatalf("restored round = %d, want the cell's %d", got, res.Rounds)
	}
	if got := sys.Engine().AliveCount(); got != 120 {
		t.Fatalf("restored population = %d, want 120", got)
	}
	// The restored warm state must keep simulating.
	if _, err := sys.Run(3); err != nil {
		t.Fatal(err)
	}
}

// TestFig4CheckpointDir: the figure driver writes one checkpoint per cell.
func TestFig4CheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 at full cell size is slow; covered by the RunOnceCheckpoint unit above")
	}
	dir := t.TempDir()
	if _, err := Fig4(Options{Runs: 1, Seed: 1, CheckpointDir: dir, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "fig4-*-run0.sosnap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("checkpoints = %v, want exactly one fig4 cell", matches)
	}
}
