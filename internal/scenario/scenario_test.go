package scenario

import (
	"strings"
	"testing"

	"sosf/internal/core"
	"sosf/internal/sim"
	"sosf/internal/spec"
)

// twoRings builds a minimal two-component topology.
func twoRings() *spec.Topology {
	return &spec.Topology{
		Name: "pair",
		Components: []spec.Component{
			{Name: "a", Shape: "ring", Weight: 1, Ports: []string{"out"}},
			{Name: "b", Shape: "ring", Weight: 1, Ports: []string{"in"}},
		},
		Links: []spec.Link{{
			A: spec.PortRef{Component: "a", Port: "out"},
			B: spec.PortRef{Component: "b", Port: "in"},
		}},
	}
}

func newSystem(t *testing.T, seed int64) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Topology: twoRings(), Nodes: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// play binds tl to sys and ticks the Bound after every round, as an
// embedder does, keeping the latest tick's report in *last.
func play(t *testing.T, sys *core.System, tl *Timeline) (b *Bound, last *Report) {
	t.Helper()
	last = new(Report)
	b = playEach(t, sys, tl, func(r Report) { *last = r })
	return b, last
}

// playEach binds tl to sys and makes ticking the Bound sys's round end,
// handing each tick's report to each; a timeline failure stops the run.
func playEach(t *testing.T, sys *core.System, tl *Timeline, each func(Report)) *Bound {
	t.Helper()
	b, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys.Engine().SetRoundEnd(func(e *sim.Engine) bool {
		each(b.Tick(e.Round()))
		return b.Err() != nil
	})
	return b
}

// split reports whether some pair of slots cannot reach each other, which
// is what a partition in effect means.
func split(e *sim.Engine) bool {
	for a := 0; a < e.Size(); a++ {
		for b := a + 1; b < e.Size(); b++ {
			if !e.SameSide(a, b) {
				return true
			}
		}
	}
	return false
}

func TestHorizonAndEmpty(t *testing.T) {
	var nilTL *Timeline
	if nilTL.Horizon() != 0 {
		t.Fatal("nil timeline must be empty with horizon 0")
	}
	tl := New([]spec.ScenarioEvent{
		{From: 10, To: 20, Kind: spec.ScenLoss, Fraction: 0.1},
		{From: 35, To: 35, Kind: spec.ScenKill, Fraction: 0.5},
	})
	if len(tl.events) != 2 {
		t.Fatal("timeline with events is not empty")
	}
	if tl.Horizon() != 35 {
		t.Fatalf("Horizon() = %d, want 35", tl.Horizon())
	}
}

func TestKillPulseFiresOnce(t *testing.T) {
	sys := newSystem(t, 1)
	tl := New([]spec.ScenarioEvent{{From: 3, To: 3, Kind: spec.ScenKill, Fraction: 0.5}})
	_, last := play(t, sys, tl)
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 100 {
		t.Fatalf("alive before the blast = %d", got)
	}
	if len(last.Fired) != 0 {
		t.Fatalf("quiet round fired %v", last.Fired)
	}
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 50 {
		t.Fatalf("alive after the blast = %d, want 50", got)
	}
	if fired := last.Fired; len(fired) != 1 || !strings.Contains(fired[0], "kill 0.5") {
		t.Fatalf("fired = %v", fired)
	}
	if _, err := sys.Run(3); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 50 {
		t.Fatalf("point event must not re-fire: alive = %d", got)
	}
}

func TestBootActionAppliesAtBind(t *testing.T) {
	sys := newSystem(t, 2)
	tl := New([]spec.ScenarioEvent{{From: 0, To: 0, Kind: spec.ScenJoin, Count: 20}})
	_, last := play(t, sys, tl)
	if got := sys.Engine().AliveCount(); got != 120 {
		t.Fatalf("boot join: alive = %d, want 120", got)
	}
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 120 || len(last.Fired) != 0 {
		t.Fatalf("boot join must not re-fire: alive = %d, fired = %v", got, last.Fired)
	}
}

func TestChurnWindowKeepsPopulation(t *testing.T) {
	sys := newSystem(t, 3)
	tl := New([]spec.ScenarioEvent{{From: 1, To: 5, Kind: spec.ScenChurn, Fraction: 0.1}})
	play(t, sys, tl)
	if _, err := sys.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 100 {
		t.Fatalf("churn must keep the population stable: %d", got)
	}
	// Churn replaced nodes: more slots than alive nodes exist.
	if sys.Engine().Size() <= 100 {
		t.Fatalf("churn never fired: size = %d", sys.Engine().Size())
	}
}

func TestLossWindowSetsAndRestores(t *testing.T) {
	sys := newSystem(t, 4)
	sys.Engine().SetLossRate(0.05)
	tl := New([]spec.ScenarioEvent{{From: 2, To: 4, Kind: spec.ScenLoss, Fraction: 0.5}})
	play(t, sys, tl)
	if got := sys.Engine().LossRate(); got != 0.05 {
		t.Fatalf("loss before window = %g", got)
	}
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().LossRate(); got != 0.5 {
		t.Fatalf("loss inside window = %g, want 0.5", got)
	}
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().LossRate(); got != 0.05 {
		t.Fatalf("loss after window = %g, want the restored 0.05", got)
	}
}

func TestPermanentLossPoint(t *testing.T) {
	sys := newSystem(t, 5)
	tl := New([]spec.ScenarioEvent{{From: 1, To: 1, Kind: spec.ScenLoss, Fraction: 0.3}})
	play(t, sys, tl)
	if _, err := sys.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().LossRate(); got != 0.3 {
		t.Fatalf("point loss must persist: %g", got)
	}
}

func TestPartitionWindowHealsItself(t *testing.T) {
	sys := newSystem(t, 6)
	tl := New([]spec.ScenarioEvent{{From: 1, To: 3, Kind: spec.ScenPartition, Count: 2}})
	play(t, sys, tl)
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	if !split(sys.Engine()) {
		t.Fatal("partition must be in effect inside the window")
	}
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if split(sys.Engine()) {
		t.Fatal("window close must heal")
	}
}

func TestKillComponentAndHeal(t *testing.T) {
	sys := newSystem(t, 7)
	tl := New([]spec.ScenarioEvent{
		{From: 1, To: 1, Kind: spec.ScenPartition, Count: 2},
		{From: 2, To: 2, Kind: spec.ScenHeal},
		{From: 3, To: 3, Kind: spec.ScenKillComponent, Component: "b"},
	})
	_, last := play(t, sys, tl)
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if split(sys.Engine()) {
		t.Fatal("heal action must clear the partition")
	}
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	// Weighted rendezvous hashing splits ~50/50, not exactly.
	if got := sys.Engine().AliveCount(); got < 35 || got > 65 {
		t.Fatalf("killing component b must fail roughly half the population: %d alive", got)
	}
	if fired := last.Fired; len(fired) != 1 || !strings.Contains(fired[0], "kill component b") {
		t.Fatalf("fired = %v", fired)
	}
}

func TestReconfigureFiresAndReports(t *testing.T) {
	sys := newSystem(t, 8)
	after := twoRings()
	after.Name = "after"
	after.Components = append(after.Components, spec.Component{
		Name: "c", Shape: "ring", Weight: 1,
	})
	tl := New([]spec.ScenarioEvent{{From: 2, To: 2, Kind: spec.ScenReconfigure, Reconfigure: after}})
	reported := 0
	bound := playEach(t, sys, tl, func(r Report) {
		if r.Reconfigured {
			reported++
		}
	})
	if _, err := sys.Run(4); err != nil {
		t.Fatal(err)
	}
	if reported != 1 {
		t.Fatalf("%d ticks reported a reconfiguration, want 1", reported)
	}
	if got := sys.Allocator().Topology().Name; got != "after" {
		t.Fatalf("topology after reconfigure = %q", got)
	}
	if err := bound.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureErrorStopsRun(t *testing.T) {
	sys := newSystem(t, 9)
	// An unvalidated target with an unknown shape: the scheduled
	// reconfiguration must fail, stop the run, and surface via Err.
	bad := &spec.Topology{
		Name:       "bad",
		Components: []spec.Component{{Name: "c", Shape: "blob", Weight: 1}},
	}
	tl := New([]spec.ScenarioEvent{{From: 2, To: 2, Kind: spec.ScenReconfigure, Reconfigure: bad}})
	bound, _ := play(t, sys, tl)
	executed, err := sys.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Fatalf("run must stop at the failed reconfiguration: executed %d rounds", executed)
	}
	if bound.Err() == nil {
		t.Fatal("Err() must surface the reconfiguration failure")
	}
}

func TestSharedTimelineIndependentBindings(t *testing.T) {
	tl := New([]spec.ScenarioEvent{{From: 1, To: 3, Kind: spec.ScenLoss, Fraction: 0.4}})
	s1, s2 := newSystem(t, 10), newSystem(t, 11)
	play(t, s1, tl)
	play(t, s2, tl)
	if _, err := s1.Run(1); err != nil {
		t.Fatal(err)
	}
	// s1's window state must not leak into s2.
	if got := s2.Engine().LossRate(); got != 0 {
		t.Fatalf("binding state leaked across systems: %g", got)
	}
	if got := s1.Engine().LossRate(); got != 0.4 {
		t.Fatalf("s1 loss = %g", got)
	}
}
