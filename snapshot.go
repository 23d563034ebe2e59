package sosf

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sosf/internal/core"
	"sosf/internal/snap"
)

// Snapshot writes a checkpoint of the complete run state: the engine
// (population, round counter, RNG position, partition/loss state, bandwidth
// history), every protocol layer's per-node state, the allocator and the
// *active* topology, the round each sub-procedure first converged, and any
// in-flight scenario window state. Restoring it and stepping M more rounds
// replays rounds N+1..N+M of the uninterrupted run byte for byte — events,
// figures, and reports — at any worker count.
//
// Call Snapshot between Steps only (the engine cannot checkpoint
// mid-round). The format is versioned; see the README's "Checkpoint &
// resume" section for the compatibility policy.
func (s *System) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	if err := s.sys.Snapshot(sw); err != nil {
		return err
	}
	// The sosf trailer rides behind the core snapshot in the same stream:
	// the first-converged round of every sub-procedure (so resumed reports
	// carry the same converged_at rounds) and the scenario timeline's
	// window bookkeeping.
	sw.String("sosf-trailer")
	for _, round := range s.tracker.FirstDone {
		sw.Int(round)
	}
	sw.Bool(s.bound != nil)
	if s.bound != nil {
		s.bound.SnapshotState(sw)
	}
	return sw.Flush()
}

// WriteSnapshot writes Snapshot to a file, atomically and durably: the
// stream lands in a temp file next to path, is fsynced, and is renamed over
// path only once fully on disk. Rolling checkpoints (WithSnapshotEvery
// without a "%d" in the path) depend on this — a crash or full disk mid-write must
// not destroy the previous good checkpoint, which is exactly the file a
// crashed run recovers from. Every failure path removes the temp file, so a
// full disk or read-only directory never litters the checkpoint directory
// with partial .tmp-* files.
func (s *System) WriteSnapshot(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := s.Snapshot(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("sosf: snapshot to %s: %w", path, err)
	}
	// Sync before the rename: the rename must never publish a checkpoint
	// whose bytes a power cut could still lose.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("sosf: snapshot to %s: sync: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// Restore rebuilds the system's run state from a Snapshot stream. The
// system must have been built from the same DSL source and behavior
// configuration (protocol knobs are verified; topology follows the
// snapshot, which matters after mid-run reconfigurations). Typically used
// through WithRestoreFrom rather than called directly. Restore reads r in
// chunks, so it may read past the end of the snapshot.
func (s *System) Restore(r io.Reader) error {
	// One Reader carries the stream from the core snapshot into the sosf
	// trailer behind it: a second Reader would miss the bytes the first
	// one read ahead.
	sr := snap.NewReader(r)
	if err := s.sys.Restore(sr); err != nil {
		return err
	}
	// Heals performed before the checkpoint were already reported by the
	// original run's event stream; only post-resume deltas are emitted.
	s.healsSeen = s.sys.Allocator().HealsTotal()
	if tag := sr.String(); sr.Err() == nil && tag != "sosf-trailer" {
		return fmt.Errorf("sosf: snapshot trailer is %q, want \"sosf-trailer\"", tag)
	}
	for sub := range s.tracker.FirstDone {
		round := sr.Int()
		if sr.Err() == nil && (round < -1 || round > s.Round()) {
			return fmt.Errorf("sosf: snapshot's %v convergence round %d is outside [-1, %d]", core.Sub(sub), round, s.Round())
		}
		s.tracker.FirstDone[sub] = round
	}
	hasBound := sr.Bool()
	if err := sr.Err(); err != nil {
		return err
	}
	if hasBound {
		if s.bound == nil {
			return fmt.Errorf("sosf: snapshot carries scenario state but this source has no scenario timeline")
		}
		if err := s.bound.RestoreState(sr); err != nil {
			return err
		}
	}
	return sr.Err()
}

// Round returns the number of completed simulation rounds — after a
// restore, the round the snapshot was taken at.
func (s *System) Round() int { return s.sys.Engine().Round() }

// snapshotPath replaces every literal "%d" in a checkpoint path template
// with the round number, so periodic snapshots can keep every checkpoint
// ("ck-%d.snap") or roll a single one ("latest.snap"). No other character
// is interpreted: the template may come from DSL source, so it is never a
// format string.
func snapshotPath(template string, round int) string {
	return strings.ReplaceAll(template, "%d", strconv.Itoa(round))
}
