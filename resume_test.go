package sosf

// The resume-equivalence contract: `run N rounds → snapshot → restore → run
// M rounds` must produce an event stream byte-identical to the
// uninterrupted N+M-round run, for any worker count. These tests enforce it
// against the frozen golden fixture — the same fixture the plain
// determinism tests compare against — so a checkpoint/restore cycle is
// provably invisible to a run's output. CI enforces the same property
// end-to-end through the `sos snapshot` / `sos resume` subcommands.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

const resumeSplit = 75 // snapshot round: mid-run, after the reconfiguration at 45

// playdemoSystem builds the playdemo scenario system with the golden run's
// options plus any extras (worker counts, restore sources).
func playdemoSystem(t *testing.T, extra ...Option) *System {
	t.Helper()
	src, err := os.ReadFile("testdata/playdemo.sos")
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{
		WithNodes(0),
		WithRounds(DefaultRounds),
		WithSeed(DefaultSeed),
		WithRunToEnd(),
	}, extra...)
	sys, err := New(string(src), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// resumeStream replays the golden scenario split at resumeSplit with the
// given worker counts for the two halves, returning the concatenated event
// stream and both halves' final reports.
func resumeStream(t *testing.T, snapWorkers, resumeWorkers int) (stream []byte, snapRep, resumeRep *Report) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "ck.sosnap")

	first := playdemoSystem(t, WithWorkers(snapWorkers))
	var buf bytes.Buffer
	first.Subscribe(JSONLSink(&buf))
	if _, err := first.Step(resumeSplit); err != nil {
		t.Fatal(err)
	}
	if err := first.WriteSnapshot(ckpt); err != nil {
		t.Fatal(err)
	}

	second := playdemoSystem(t, WithWorkers(resumeWorkers), WithRestoreFrom(ckpt))
	if got := second.Round(); got != resumeSplit {
		t.Fatalf("restored round = %d, want %d", got, resumeSplit)
	}
	second.Subscribe(JSONLSink(&buf))
	if _, err := second.Step(DefaultRounds - resumeSplit); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), first.Report(), second.Report()
}

func TestResumeEquivalenceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden/playdemo.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []struct{ snap, resume int }{
		{1, 1},
		{4, 4},
		{1, 4}, // a snapshot is worker-count-free: mix the halves too
	} {
		got, _, _ := resumeStream(t, workers.snap, workers.resume)
		if !bytes.Equal(got, want) {
			gotLines := bytes.Split(got, []byte("\n"))
			wantLines := bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("workers %d→%d: resumed stream diverges from the golden fixture at line %d:\n got: %s\nwant: %s",
						workers.snap, workers.resume, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("workers %d→%d: resumed stream differs in length (got %d, want %d bytes)",
				workers.snap, workers.resume, len(got), len(want))
		}
	}
}

// TestResumeReportEquivalence: the resumed run's final report — including
// convergence rounds (tracker state) and whole-run bandwidth averages
// (meter history) — must match the uninterrupted run's byte for byte.
func TestResumeReportEquivalence(t *testing.T) {
	uninterrupted := playdemoSystem(t)
	if _, err := uninterrupted.Step(DefaultRounds); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(uninterrupted.Report())
	if err != nil {
		t.Fatal(err)
	}

	_, _, resumedRep := resumeStream(t, 1, 1)
	got, err := json.Marshal(resumedRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestSnapshotEvery: periodic checkpoints land where configured, and the
// newest one resumes to the same stream tail as the uninterrupted run.
func TestSnapshotEvery(t *testing.T) {
	dir := t.TempDir()
	tmpl := filepath.Join(dir, "ck-%d.sosnap")

	sys := playdemoSystem(t, WithSnapshotEvery(25, tmpl))
	var full bytes.Buffer
	sys.Subscribe(JSONLSink(&full))
	if _, err := sys.Step(DefaultRounds); err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{25, 50, 75, 100, 125, 150} {
		if _, err := os.Stat(filepath.Join(dir, "ck-"+strconv.Itoa(round)+".sosnap")); err != nil {
			t.Fatalf("checkpoint for round %d missing: %v", round, err)
		}
	}

	resumed := playdemoSystem(t, WithRestoreFrom(filepath.Join(dir, "ck-100.sosnap")))
	var tail bytes.Buffer
	resumed.Subscribe(JSONLSink(&tail))
	if _, err := resumed.Step(DefaultRounds - 100); err != nil {
		t.Fatal(err)
	}
	fullLines := bytes.Split(full.Bytes(), []byte("\n"))
	wantTail := bytes.Join(fullLines[100:], []byte("\n"))
	if !bytes.Equal(tail.Bytes(), wantTail) {
		t.Fatal("resume from a periodic checkpoint diverged from the uninterrupted tail")
	}
}

// TestScenarioSnapshotDirective: a `snapshot at R "path"` action in the DSL
// writes its checkpoint after the whole of round R has ended — the round's
// other actions, churn, measurement and event — so, whatever the action's
// place in the timeline:
//   - the resumed tail equals the uninterrupted stream,
//   - the resumed report carries the uninterrupted converged_at rounds,
//   - the checkpoint is byte-identical to WriteSnapshot after Step(R) of
//     the same source.
func TestScenarioSnapshotDirective(t *testing.T) {
	const rounds = 60
	cases := []struct {
		name string
		// scenario holds the timeline's lines; %s is the checkpoint path.
		scenario string
		at       int
		opts     []Option
	}{
		{
			// The restored run must restore the pre-window rate at round
			// 20 (the Bound's window state).
			name:     "inside a loss window",
			scenario: "during 10 20 loss 0.1\nat 15 snapshot \"%s\"\nat 30 kill 0.2",
			at:       15,
		},
		{
			name:     "listed before a same-round kill",
			scenario: "at 15 snapshot \"%s\"\nat 15 kill 0.2",
			at:       15,
		},
		{
			name:     "under churn",
			scenario: "at 15 snapshot \"%s\"",
			at:       15,
			opts:     []Option{WithChurn(0.02)},
		},
		{
			// Round 4 is where Elementary Topology first converges.
			name:     "at the first convergence",
			scenario: "at 4 snapshot \"%s\"",
			at:       4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "dsl.sosnap")
			src := `topology snapdemo {
			    nodes 120
			    component a ring { port p }
			    component b ring { port q }
			    link a.p b.q
			    scenario {
			        ` + fmt.Sprintf(tc.scenario, ckpt) + `
			    }
			}`
			build := func(extra ...Option) *System {
				t.Helper()
				opts := append([]Option{WithSeed(5), WithRounds(rounds), WithRunToEnd()}, tc.opts...)
				sys, err := New(src, append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}

			whole := build()
			var full bytes.Buffer
			whole.Subscribe(JSONLSink(&full))
			if _, err := whole.Step(rounds); err != nil {
				t.Fatal(err)
			}
			scheduled, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatalf("scheduled snapshot missing: %v", err)
			}

			resumed := build(WithRestoreFrom(ckpt))
			var tail bytes.Buffer
			resumed.Subscribe(JSONLSink(&tail))
			if _, err := resumed.Step(rounds - tc.at); err != nil {
				t.Fatal(err)
			}
			fullLines := bytes.Split(full.Bytes(), []byte("\n"))
			if want := bytes.Join(fullLines[tc.at:], []byte("\n")); !bytes.Equal(tail.Bytes(), want) {
				t.Error("resume from a DSL-scheduled snapshot diverged from the uninterrupted tail")
			}
			for i, sub := range whole.Report().Subs {
				if got := resumed.Report().Subs[i].ConvergedAt; got != sub.ConvergedAt {
					t.Errorf("%s converged_at: %d resumed, %d uninterrupted", sub.Name, got, sub.ConvergedAt)
				}
			}

			stepped := build()
			if _, err := stepped.Step(tc.at); err != nil {
				t.Fatal(err)
			}
			var after bytes.Buffer
			if err := stepped.Snapshot(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(scheduled, after.Bytes()) {
				t.Errorf("scheduled checkpoint (%d B) differs from WriteSnapshot after Step(%d) (%d B)",
					len(scheduled), tc.at, after.Len())
			}
		})
	}
}

// TestBranchFromScenarioFreeCheckpoint pins the branching pattern: a warm
// checkpoint taken by a run with no timeline, restored into a source whose
// `scenario` block fires after the checkpoint round, replays the same
// stream as one uninterrupted run of that source.
func TestBranchFromScenarioFreeCheckpoint(t *testing.T) {
	const split, rounds = 30, 60
	ckpt := filepath.Join(t.TempDir(), "warm.sosnap")
	warm, err := New(pairSrc, WithSeed(9), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Step(split); err != nil {
		t.Fatal(err)
	}
	if err := warm.WriteSnapshot(ckpt); err != nil {
		t.Fatal(err)
	}

	branchSrc := withScenario(pairSrc, "at 40 kill 0.3")
	whole, err := New(branchSrc, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	whole.Subscribe(JSONLSink(&full))
	if _, err := whole.Step(rounds); err != nil {
		t.Fatal(err)
	}
	branch, err := New(branchSrc, WithSeed(9), WithRestoreFrom(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	branch.Subscribe(JSONLSink(&tail))
	if _, err := branch.Step(rounds - split); err != nil {
		t.Fatal(err)
	}

	fullLines := bytes.Split(full.Bytes(), []byte("\n"))
	if !bytes.Contains(fullLines[40-1], []byte(`"kill 0.3: `)) {
		t.Fatalf("round 40 does not carry the scheduled kill: %s", fullLines[40-1])
	}
	wantTail := bytes.Join(fullLines[split:], []byte("\n"))
	if !bytes.Equal(tail.Bytes(), wantTail) {
		t.Fatal("branch from a scenario-free checkpoint diverged from the uninterrupted run of its source")
	}
}
