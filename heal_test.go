package sosf

// The self-healing contract: a bare kill — no reconfiguration, no
// replacement joins — leaves index holes in every surviving component, and
// the runtime repair layer (dense alive-rank translation plus threshold
// re-densification) must carry the system back to accuracy 1.0 on its own.
// These tests pin that end-to-end across structurally different shapes and
// hold the heal path to the same determinism bar as everything else:
// byte-identical streams across worker counts and across a snapshot/restore
// cycle taken mid-heal. (That the reconvergence is the repair's doing, not
// slack in the budget, is internal/core's TestDisabledHealingStaysStuck.)

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// healShapes are the tentpole's acceptance shapes: each first component
// exercises a different index-arithmetic family (hierarchy, mesh, wrapped
// mesh, hub fan-out) so a dense-rank translation bug in any of them shows
// up as a reconvergence failure.
var healShapes = []struct {
	name   string
	clause string // shape + params for the main component
}{
	{"tree", "tree { param arity 2 weight 2 port p }"},
	{"grid", "grid { param width 8 weight 2 port p }"},
	{"torus", "torus { param width 8 weight 2 port p }"},
	{"torus-ragged", "torus { param width 5 weight 2 port p }"},
	{"star-hub", "star { param hubs 2 weight 2 port p }"},
}

// healSource builds a two-component topology whose main component uses the
// given shape clause. 96 nodes at weight 2:1 gives the main component 64
// members — enough that a 50% blast leaves real index holes everywhere.
func healSource(clause string) string {
	return fmt.Sprintf(`topology healcase {
  nodes 96
  component main %s
  component aux line { weight 1 port q }
  link main.p aux.q
}
`, clause)
}

const (
	healKillRound = 25
	healRounds    = healKillRound + 40 // the campaign's ReconvergeWithin budget
)

// healScenario adds the bare fault to src: half the population dies at
// round 25 and nothing replaces it.
func healScenario(src string) string {
	return withScenario(src, fmt.Sprintf("at %d kill 0.5", healKillRound))
}

// runHeal runs one bare-kill timeline and returns the decoded events.
func runHeal(t *testing.T, src string, opts ...Option) []RoundEvent {
	t.Helper()
	base := []Option{WithSeed(5), WithRounds(healRounds), WithRunToEnd()}
	sys, err := New(healScenario(src), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var events []RoundEvent
	sys.Subscribe(func(ev RoundEvent) { events = append(events, ev) })
	if _, err := sys.Step(healRounds); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestBareKillReconverges is the tentpole acceptance: for every shape
// family, a bare 50% kill reconverges to accuracy 1.0 within the
// reconvergence budget, with at least one self-healing repair on record.
func TestBareKillReconverges(t *testing.T) {
	for _, sh := range healShapes {
		t.Run(sh.name, func(t *testing.T) {
			events := runHeal(t, healSource(sh.clause))
			heals := 0
			converged := false
			for _, ev := range events {
				heals += ev.Heals
				if ev.Round > healKillRound && ev.Converged {
					converged = true
				}
			}
			if heals == 0 {
				t.Fatalf("bare 50%% kill triggered no self-healing repair")
			}
			if !converged {
				last := events[len(events)-1]
				t.Fatalf("no reconvergence within %d rounds of the kill; final accuracy: %v",
					healRounds-healKillRound, last.Accuracy)
			}
			if last := events[len(events)-1]; !last.Converged {
				t.Fatalf("system reconverged but did not stay converged; final accuracy: %v", last.Accuracy)
			}
		})
	}
}

// TestHealOptionRejected: the `option heal` knob is gone, and a source that
// still carries it must fail New and Validate with the named error instead
// of silently running with healing on — a different simulation than the
// file pinned.
func TestHealOptionRejected(t *testing.T) {
	src := strings.Replace(healSource(healShapes[0].clause), "nodes 96", "nodes 96\n  option heal 0", 1)
	if _, err := New(src); !errors.Is(err, ErrHealOptionRemoved) {
		t.Fatalf("New(option heal 0) = %v, want ErrHealOptionRemoved", err)
	}
	if err := Validate(src); !errors.Is(err, ErrHealOptionRemoved) {
		t.Fatalf("Validate(option heal 0) = %v, want ErrHealOptionRemoved", err)
	}
}

// TestWorkerCountInvariantHeal holds the heal path to the engine's
// cross-worker determinism bar: the bare-kill timeline — kill, repair,
// reconvergence — must stream byte-identically for workers 1, 2, 4, 8.
func TestWorkerCountInvariantHeal(t *testing.T) {
	for _, sh := range healShapes {
		t.Run(sh.name, func(t *testing.T) {
			assertWorkerInvariant(t, healScenario(healSource(sh.clause)),
				WithSeed(5), WithRounds(healRounds))
		})
	}
}

// TestResumeEquivalenceMidHeal snapshots a bare-kill run while the repair's
// reconvergence is still in flight and requires the restored run — at a
// different worker count — to complete the stream byte-identically to the
// uninterrupted run. Heal state (the heals counter, the compacted index
// space) must therefore round-trip exactly through the snapshot codec.
func TestResumeEquivalenceMidHeal(t *testing.T) {
	src := healScenario(healSource(healShapes[0].clause))
	opts := func(extra ...Option) []Option {
		return append([]Option{
			WithSeed(5), WithRounds(healRounds), WithRunToEnd(),
		}, extra...)
	}
	split := healKillRound + 3 // the kill and its heal are behind us, reconvergence is not

	whole, err := New(src, opts(WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	whole.Subscribe(JSONLSink(&want))
	if _, err := whole.Step(healRounds); err != nil {
		t.Fatal(err)
	}

	first, err := New(src, opts(WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	first.Subscribe(JSONLSink(&got))
	if _, err := first.Step(split); err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir() + "/midheal.sosnap"
	if err := first.WriteSnapshot(ckpt); err != nil {
		t.Fatal(err)
	}

	second, err := New(src, opts(WithWorkers(4), WithRestoreFrom(ckpt))...)
	if err != nil {
		t.Fatal(err)
	}
	if r := second.Round(); r != split {
		t.Fatalf("restored round = %d, want %d", r, split)
	}
	second.Subscribe(JSONLSink(&got))
	if _, err := second.Step(healRounds - split); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		wantLines := bytes.Split(want.Bytes(), []byte("\n"))
		gotLines := bytes.Split(got.Bytes(), []byte("\n"))
		for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
			if !bytes.Equal(wantLines[i], gotLines[i]) {
				t.Fatalf("mid-heal resume diverges at line %d:\nwhole: %s\nsplit: %s",
					i+1, wantLines[i], gotLines[i])
			}
		}
		t.Fatalf("mid-heal resume stream length differs: %d vs %d", want.Len(), got.Len())
	}
	if !bytes.Contains(want.Bytes(), []byte(`"heals":`)) {
		t.Fatal("timeline never healed; the mid-heal split proves nothing")
	}
}
