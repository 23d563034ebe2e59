package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sosf"
)

const testTopo = "../../testdata/ringpair.sos"

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestCheckCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"check", testTopo}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("check output = %q", out)
	}
}

func TestCheckRejectsBadFile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.sos")
	if err := os.WriteFile(bad, []byte("topology broken {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", bad}); err == nil {
		t.Fatal("invalid file should fail")
	}
}

func TestRunCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", "-rounds", "100", "-seed", "2", testTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "converged: true") {
		t.Fatalf("run output:\n%s", out)
	}
	if !strings.Contains(out, "Port Connection") {
		t.Fatalf("run output missing sub-procedures:\n%s", out)
	}
}

func TestDotCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"dot", "-rounds", "60", testTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "graph \"ringpair\"") || !strings.Contains(out, " -- ") {
		t.Fatalf("dot output:\n%.300s", out)
	}
	if !strings.Contains(out, "shape=box") {
		t.Fatal("port managers should render as boxes")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus", testTopo},
		{"run"},
		{"run", testTopo, "extra"},
		{"run", "/does/not/exist.sos"},
		{"fuzz", "-runs", "0"},
		{"fuzz", "-runs", "-3"},
		{"fuzz", "-horizon", "0"},
		{"fuzz", "-within", "0"},
		{"fuzz", "-bandwidth", "0"},
		{"fuzz", "-bandwidth", "NaN"},
		{"fuzz", "-pop-floor", "-0.1"},
		{"fuzz", "-pop-floor", "1"},
		{"fuzz", "-pop-floor", "NaN"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}

const playTopo = "../../testdata/playdemo.sos"

func TestRunJSONCommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", "-json", "-rounds", "100", "-seed", "2", testTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Topology  string `json:"topology"`
		Converged bool   `json:"converged"`
		Subs      []struct {
			Name string `json:"name"`
		} `json:"subs"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("run -json output is not JSON: %v\n%s", err, out)
	}
	if rep.Topology != "ringpair" || !rep.Converged || len(rep.Subs) != 5 {
		t.Fatalf("run -json report = %+v", rep)
	}
}

// playStream runs `sos play` and returns the stdout event stream.
func playStream(t *testing.T, args ...string) string {
	t.Helper()
	// Silence the final report (it goes to stderr).
	oldErr := os.Stderr
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devNull
	defer func() {
		os.Stderr = oldErr
		devNull.Close()
	}()
	out, err := capture(t, func() error {
		return run(append([]string{"play"}, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlayStreamsOneEventPerRound is the acceptance check: a DSL-embedded
// scenario (kill + reconfigure mid-run) streams one valid JSON round event
// per round, deterministically for a fixed seed.
func TestPlayStreamsOneEventPerRound(t *testing.T) {
	args := []string{"-rounds", "80", "-seed", "3", playTopo}
	out := playStream(t, args...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 80 {
		t.Fatalf("got %d events, want 80 (one per round)", len(lines))
	}
	sawKill, sawReconfigure := false, false
	for i, line := range lines {
		var ev struct {
			Round    int                `json:"round"`
			Nodes    int                `json:"nodes"`
			Accuracy map[string]float64 `json:"accuracy"`
			Actions  []string           `json:"actions"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if ev.Round != i+1 {
			t.Fatalf("line %d has round %d", i+1, ev.Round)
		}
		if ev.Nodes <= 0 || len(ev.Accuracy) != 5 {
			t.Fatalf("event %d incomplete: %s", i+1, line)
		}
		for _, a := range ev.Actions {
			if strings.HasPrefix(a, "kill ") {
				sawKill = true
			}
			if strings.HasPrefix(a, "reconfigure ") {
				sawReconfigure = true
			}
		}
	}
	if !sawKill || !sawReconfigure {
		t.Fatalf("scenario actions missing from the stream: kill=%v reconfigure=%v",
			sawKill, sawReconfigure)
	}
	if again := playStream(t, args...); again != out {
		t.Fatal("play is not deterministic for a fixed seed")
	}
}

func TestPlayExtendsRoundsToScenarioHorizon(t *testing.T) {
	// playdemo's timeline ends at round 70; -rounds 10 must be extended.
	out := playStream(t, "-rounds", "10", "-seed", "3", playTopo)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 70 {
		t.Fatalf("got %d events, want the 70-round scenario horizon", len(lines))
	}
}

func TestPlayCSV(t *testing.T) {
	out := playStream(t, "-events", "csv", "-rounds", "5", testTopo)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("want header + 5 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "round,nodes,converged,") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

func TestPlayRejectsUnknownFormat(t *testing.T) {
	if err := run([]string{"play", "-events", "xml", playTopo}); err == nil {
		t.Fatal("unknown -events format accepted")
	}
}

const playdemoTopo = "../../testdata/playdemo.sos"

// TestSnapshotResumeSplitMatchesPlay: the CI resume-equivalence gate in
// process — snapshot at 75, resume to 150, concatenated streams must be
// byte-identical to one uninterrupted play (the frozen golden fixture).
func TestSnapshotResumeSplitMatchesPlay(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.sosnap")

	first, err := capture(t, func() error {
		return run([]string{"snapshot", "-rounds", "75", "-snap", ckpt, playdemoTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(first, "\n"); got != 75 {
		t.Fatalf("snapshot streamed %d events, want 75", got)
	}

	second, err := capture(t, func() error {
		return run([]string{"resume", "-snap", ckpt, "-rounds", "150", "-workers", "4", playdemoTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(second, "\n"); got != 75 {
		t.Fatalf("resume streamed %d events, want 75", got)
	}

	golden, err := os.ReadFile("../../testdata/golden/playdemo.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if first+second != string(golden) {
		t.Fatal("snapshot+resume streams differ from the uninterrupted golden run")
	}
}

// TestDistMatchesGolden: `sos dist` at 3 shards streams the same bytes as
// the uninterrupted golden play — the CI dist-equivalence gate in process.
func TestDistMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a full 150-round playdemo replay on four replicas")
	}
	out, err := capture(t, func() error {
		return run([]string{"dist", "-shards", "3", playdemoTopo})
	})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden/playdemo.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatal("dist -shards 3 stream differs from the golden play stream")
	}
}

func TestSnapshotRequiresSnapFlag(t *testing.T) {
	if err := run([]string{"snapshot", "-rounds", "5", playdemoTopo}); err == nil {
		t.Fatal("snapshot without -snap should fail")
	}
	if err := run([]string{"resume", "-rounds", "5", playdemoTopo}); err == nil {
		t.Fatal("resume without -snap should fail")
	}
}

func TestResumeRejectsPastTarget(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.sosnap")
	if _, err := capture(t, func() error {
		return run([]string{"snapshot", "-rounds", "80", "-snap", ckpt, playdemoTopo})
	}); err != nil {
		t.Fatal(err)
	}
	// Horizon (70) < checkpoint round (80) > target (75): must refuse.
	if _, err := capture(t, func() error {
		return run([]string{"resume", "-snap", ckpt, "-rounds", "75", playdemoTopo})
	}); err == nil || !strings.Contains(err.Error(), "past the") {
		t.Fatalf("err = %v, want past-target refusal", err)
	}
}

// TestFileOptionsSelfContainedReplay pins the reproducer contract behind
// the fuzzing corpus: a .sos file carrying its own seed and rounds
// options replays that exact run with no flags at all, while explicit
// flags still win.
func TestFileOptionsSelfContainedReplay(t *testing.T) {
	file := filepath.Join(t.TempDir(), "self.sos")
	src := `
topology self {
    nodes 16
    option seed 7
    option rounds 9
    component a ring { weight 1 port p }
    component b ring { weight 1 port q }
    link a.p b.q
    scenario {
        at 3 kill 0.1
    }
}`
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	plain, err := capture(t, func() error { return run([]string{"play", file}) })
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(plain, "\n"); got != 9 {
		t.Fatalf("play with no flags streamed %d events, want the file's 9 rounds", got)
	}
	flagged, err := capture(t, func() error {
		return run([]string{"play", "-seed", "7", "-rounds", "9", file})
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain != flagged {
		t.Fatal("file options and equivalent explicit flags produced different streams")
	}
	longer, err := capture(t, func() error {
		return run([]string{"play", "-rounds", "12", file})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(longer, "\n"); got != 12 {
		t.Fatalf("explicit -rounds 12 streamed %d events, want 12", got)
	}
}

// TestFuzzCleanCampaign is the CLI face of campaign.TestCampaignCleanByDefault:
// a small fixed-seed matrix with the default invariants finds nothing and
// exits zero.
func TestFuzzCleanCampaign(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"fuzz", "-seed", "1", "-runs", "3"}) })
	if err != nil {
		t.Fatalf("clean campaign failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok: 3 runs, 0 violations") {
		t.Fatalf("fuzz output = %q", out)
	}
}

// TestFuzzSeededViolationWritesCorpus seeds a failure with a strict
// population floor and checks the full loop: non-zero exit, reproducer on
// stdout, and a NAME.in/NAME.out pair in the corpus directory.
func TestFuzzSeededViolationWritesCorpus(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return run([]string{"fuzz", "-seed", "3", "-runs", "1", "-pop-floor", "0.95", "-corpus", dir})
	})
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("seeded campaign must fail with a violation error, got %v", err)
	}
	if !strings.Contains(out, "minimal reproducer") || !strings.Contains(out, "topology ") {
		t.Fatalf("fuzz stdout lacks the reproducer:\n%s", out)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.in"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no .in corpus entries written (%v)", err)
	}
	for _, in := range entries {
		outFile := strings.TrimSuffix(in, ".in") + ".out"
		if _, err := os.Stat(outFile); err != nil {
			t.Fatalf("corpus entry %s has no golden stream: %v", in, err)
		}
	}
}

// TestFuzzRejectsFileArgument keeps the CLI surface honest.
func TestFuzzRejectsFileArgument(t *testing.T) {
	if err := run([]string{"fuzz", testTopo}); err == nil {
		t.Fatal("fuzz with a file argument should fail")
	}
}

// TestWorkersFlagRule: every command's -workers flag goes through
// workerCount, so `-workers 0` reaches the engine as GOMAXPROCS, other
// non-negative values pass through, and a negative value is refused before
// anything runs.
func TestWorkersFlagRule(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, tc := range []struct{ flag, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{1, 1},
		{3, 3},
	} {
		for _, cmd := range []string{"run", "play", "snapshot", "resume", "dot", "dist"} {
			f := addRunFlags(flag.NewFlagSet(cmd, flag.ContinueOnError))
			if err := f.parse([]string{"-workers", strconv.Itoa(tc.flag), testTopo}); err != nil {
				t.Fatal(err)
			}
			sys, err := sosf.New(f.spec.Source, f.spec.Options()...)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Engine().Workers(); got != tc.want {
				t.Errorf("%s -workers %d: engine runs %d workers, want %d", cmd, tc.flag, got, tc.want)
			}
		}
	}
	for _, args := range [][]string{
		{"play", "-workers", "-1", testTopo},
		{"dist", "-workers", "-1", testTopo},
		{"serve", "-workers", "-1"},
		{"fuzz", "-workers", "-1"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-workers must be >= 0") {
			t.Errorf("run(%v) = %v, want the -workers refusal", args, err)
		}
	}
}
