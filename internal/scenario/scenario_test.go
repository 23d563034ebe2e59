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
	bound, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 100 {
		t.Fatalf("alive before the blast = %d", got)
	}
	if len(bound.Fired()) != 0 {
		t.Fatalf("quiet round fired %v", bound.Fired())
	}
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 50 {
		t.Fatalf("alive after the blast = %d, want 50", got)
	}
	if fired := bound.Fired(); len(fired) != 1 || !strings.Contains(fired[0], "kill 0.5") {
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
	bound, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Engine().AliveCount(); got != 120 {
		t.Fatalf("boot join: alive = %d, want 120", got)
	}
	if fired := bound.Fired(); len(fired) != 1 || fired[0] != "join 20" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestChurnWindowKeepsPopulation(t *testing.T) {
	sys := newSystem(t, 3)
	tl := New([]spec.ScenarioEvent{{From: 1, To: 5, Kind: spec.ScenChurn, Fraction: 0.1}})
	if _, err := tl.Bind(sys); err != nil {
		t.Fatal(err)
	}
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
	if _, err := tl.Bind(sys); err != nil {
		t.Fatal(err)
	}
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
	if _, err := tl.Bind(sys); err != nil {
		t.Fatal(err)
	}
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
	if _, err := tl.Bind(sys); err != nil {
		t.Fatal(err)
	}
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
	bound, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
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
	if fired := bound.Fired(); len(fired) != 1 || !strings.Contains(fired[0], "kill component b") {
		t.Fatalf("fired = %v", fired)
	}
}

func TestReconfigureFiresAndHooks(t *testing.T) {
	sys := newSystem(t, 8)
	after := twoRings()
	after.Name = "after"
	after.Components = append(after.Components, spec.Component{
		Name: "c", Shape: "ring", Weight: 1,
	})
	tl := New([]spec.ScenarioEvent{{From: 2, To: 2, Kind: spec.ScenReconfigure, Reconfigure: after}})
	bound, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	hooked := 0
	bound.OnReconfigure = func() { hooked++ }
	if _, err := sys.Run(4); err != nil {
		t.Fatal(err)
	}
	if hooked != 1 {
		t.Fatalf("OnReconfigure ran %d times, want 1", hooked)
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
	bound, err := tl.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := tl.Bind(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Bind(s2); err != nil {
		t.Fatal(err)
	}
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
