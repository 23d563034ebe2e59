package sosf

// Error-path coverage for the atomic checkpoint writer: a failed
// WriteSnapshot must never litter the checkpoint directory with partial
// .tmp-* files, and must never destroy the previous good checkpoint —
// that file is exactly what a crashed run recovers from.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySystem builds a small converged-ish system for checkpoint tests.
func tinySystem(t testing.TB) *System {
	t.Helper()
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(string(src), WithNodes(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(3); err != nil {
		t.Fatal(err)
	}
	return sys
}

// assertNoTempLitter fails if any .tmp-* file from the atomic writer
// survived in dir.
func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %q left behind after a failed WriteSnapshot", e.Name())
		}
	}
}

func TestWriteSnapshotRenameFailureCleansTemp(t *testing.T) {
	sys := tinySystem(t)
	dir := t.TempDir()
	// Make the rename itself fail: the target path is an existing
	// non-empty directory, which os.Rename refuses to replace.
	target := filepath.Join(dir, "ck.sosnap")
	if err := os.MkdirAll(filepath.Join(target, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteSnapshot(target); err == nil {
		t.Fatal("WriteSnapshot over a non-empty directory succeeded, want rename error")
	}
	assertNoTempLitter(t, dir)
	// The obstruction is untouched.
	if _, err := os.Stat(filepath.Join(target, "occupied")); err != nil {
		t.Fatalf("rename failure damaged the existing target: %v", err)
	}
}

func TestWriteSnapshotReadOnlyDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permission bits are not enforced")
	}
	sys := tinySystem(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "ck.sosnap")
	if err := sys.WriteSnapshot(good); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := sys.Step(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteSnapshot(good); err == nil {
		t.Fatal("WriteSnapshot into a read-only directory succeeded, want error")
	}
	if err := os.Chmod(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	assertNoTempLitter(t, dir)
	// The previous good checkpoint survived byte for byte.
	now, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if string(now) != string(prev) {
		t.Fatal("failed WriteSnapshot corrupted the previous good checkpoint")
	}
}

func TestWriteSnapshotMissingDir(t *testing.T) {
	sys := tinySystem(t)
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "ck.sosnap")
	if err := sys.WriteSnapshot(missing); err == nil {
		t.Fatal("WriteSnapshot into a missing directory succeeded, want error")
	}
}

// TestSnapshotEveryWriteFailureStopsRun pins the WithSnapshotEvery error
// contract on a real failing path: the periodic checkpoint write stops
// the run, the write error surfaces from Step, and the System stays
// stopped: every later Step and DistRound returns that error at once,
// with no round, no scenario action and no event.
func TestSnapshotEveryWriteFailureStopsRun(t *testing.T) {
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "ck-%d.sosnap")
	sys, err := New(string(src), WithNodes(60), WithRunToEnd(),
		WithSnapshotEvery(2, bad))
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	sys.Subscribe(func(RoundEvent) { events++ })
	executed, first := sys.Step(10)
	if !errors.Is(first, os.ErrNotExist) {
		t.Fatalf("Step error = %v, want the failed checkpoint write", first)
	}
	if executed != 2 {
		t.Fatalf("run stopped after %d rounds, want 2 (the first failing checkpoint)", executed)
	}
	for i := 0; i < 2; i++ {
		if executed, err := sys.Step(10); executed != 0 || err != first {
			t.Fatalf("Step #%d after the failure = (%d, %v), want (0, %v)", i+2, executed, err, first)
		}
	}
	if _, err := sys.DistRound(0, sys.Size(), nil); err != first {
		t.Fatalf("DistRound after the failure returned %v, want %v", err, first)
	}
	if sys.Round() != 2 || events != 2 {
		t.Fatalf("failed system at round %d after %d events, want round 2 and 2 events", sys.Round(), events)
	}
}

// TestStepContextCancelStopsAtRoundBoundary pins the cooperative
// cancellation contract: a cancelled context stops the run between rounds,
// returns ctx.Err(), and leaves the system snapshot-safe — stepping it
// again replays the uninterrupted run.
func TestStepContextCancelStopsAtRoundBoundary(t *testing.T) {
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *System {
		sys, err := New(string(src), WithNodes(60), WithRunToEnd())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	interrupted := build()
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	interrupted.Subscribe(func(RoundEvent) {
		if rounds++; rounds == 5 {
			cancel()
		}
	})
	executed, err := interrupted.StepContext(ctx, 20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StepContext error = %v, want context.Canceled", err)
	}
	if executed != 5 || interrupted.Round() != 5 {
		t.Fatalf("cancelled run executed %d rounds (at round %d), want stop right after round 5",
			executed, interrupted.Round())
	}
	// The interrupted system continues exactly like an uninterrupted run.
	if _, err := interrupted.Step(15); err != nil {
		t.Fatal(err)
	}
	uninterrupted := build()
	if _, err := uninterrupted.Step(20); err != nil {
		t.Fatal(err)
	}
	got, want := interrupted.Report(), uninterrupted.Report()
	if got.String() != want.String() {
		t.Fatalf("interrupted+resumed run diverged from uninterrupted run:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotPathSubstitutesOnlyRoundVerb: a checkpoint path, which may
// come from DSL source, is not a format string. Every literal "%d" becomes
// the round number and every other "%" stays as written.
func TestSnapshotPathSubstitutesOnlyRoundVerb(t *testing.T) {
	for _, tc := range []struct {
		template string
		round    int
		want     string
	}{
		{"ck-%d-%s.sosnap", 5, "ck-5-%s.sosnap"},
		{"100%-%d.sosnap", 6, "100%-6.sosnap"},
		{"100%done.sosnap", 6, "1006one.sosnap"}, // a literal %d, wherever it stands
		{"%d/%d.sosnap", 7, "7/7.sosnap"},
		{"latest.sosnap", 8, "latest.sosnap"},
		{"100%.sosnap", 9, "100%.sosnap"},
	} {
		if got := snapshotPath(tc.template, tc.round); got != tc.want {
			t.Errorf("snapshotPath(%q, %d) = %q, want %q", tc.template, tc.round, got, tc.want)
		}
	}
}

// TestDSLSnapshotPathKeepsPercent drives the same rule through a scenario's
// snapshot directives: the files land under the literal names.
func TestDSLSnapshotPathKeepsPercent(t *testing.T) {
	dir := filepath.ToSlash(t.TempDir())
	src := `topology ck {
    nodes 40
    component a ring { port p }
    component b ring { port q }
    link a.p b.q
    scenario {
        at 5 snapshot "` + dir + `/ck-%d-%s.sosnap"
        at 6 snapshot "` + dir + `/100%-%d.sosnap"
    }
}`
	sys, err := New(src, WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(6); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ck-5-%s.sosnap", "100%-6.sosnap"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("snapshot directive did not write %q: %v", name, err)
		}
	}
}

// TestDSLSnapshotWriteFailureStopsRun: a scheduled `snapshot` action whose
// checkpoint cannot be written stops the run at its round with the write
// error, never skipping silently, and no later checkpoint is written.
func TestDSLSnapshotWriteFailureStopsRun(t *testing.T) {
	dir := filepath.ToSlash(t.TempDir())
	src := `topology ck {
    nodes 40
    component a ring { port p }
    component b ring { port q }
    link a.p b.q
    scenario {
        at 2 snapshot "` + dir + `/no/such/dir/ck.sosnap"
        at 4 snapshot "` + dir + `/later.sosnap"
    }
}`
	sys, err := New(src, WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	executed, err := sys.Step(10)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Step error = %v, want the failed checkpoint write", err)
	}
	if executed != 2 {
		t.Fatalf("run stopped after %d rounds, want 2 (the failing snapshot action)", executed)
	}
	if _, err := os.Stat(filepath.Join(dir, "later.sosnap")); !os.IsNotExist(err) {
		t.Fatalf("a checkpoint after the failed one was written (stat err = %v)", err)
	}
}

// checkpointNodes is the population of the checkpoint benchmarks.
const checkpointNodes = 10_000

// checkpointSystem is a 10 000-node ringpair run five rounds in, and its
// checkpoint.
func checkpointSystem(b *testing.B) (*System, []byte) {
	b.Helper()
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(string(src), WithNodes(checkpointNodes), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Step(5); err != nil {
		b.Fatal(err)
	}
	var blob bytes.Buffer
	if err := sys.Snapshot(&blob); err != nil {
		b.Fatal(err)
	}
	return sys, blob.Bytes()
}

// BenchmarkCheckpointWrite writes the checkpoint of a 10 000-node run into
// a reused in-memory buffer.
func BenchmarkCheckpointWrite(b *testing.B) {
	sys, blob := checkpointSystem(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sys.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore restores the checkpoint of a 10 000-node run
// from memory.
func BenchmarkCheckpointRestore(b *testing.B) {
	sys, blob := checkpointSystem(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Restore(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
