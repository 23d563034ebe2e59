package campaign

import (
	"os"
	"strings"
	"testing"

	"sosf/internal/dsl"
	"sosf/internal/spec"
)

// shrinkOne runs a single-run campaign with a strict population floor and
// returns the minimized finding plus its parsed reproducer.
func shrinkOne(t *testing.T, cfg Config) (Finding, *spec.Topology) {
	t.Helper()
	findings, err := New(cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %d", len(findings))
	}
	topo, err := dsl.ParseTopology(findings[0].Source)
	if err != nil {
		t.Fatalf("minimized reproducer does not parse: %v\n%s", err, findings[0].Source)
	}
	return findings[0], topo
}

// TestShrinkDistillsMinimalReproducer drives the whole minimization stack
// on a seeded failure and checks the result is genuinely minimal: a
// single necessary event, a round budget bisected down to the violation
// round, and a population at the shrinker's floor.
func TestShrinkDistillsMinimalReproducer(t *testing.T) {
	f, topo := shrinkOne(t, Config{
		Seed: 3, Runs: 1, PopulationFloor: 0.95,
	})
	if f.Violation.Invariant != InvPopulationFloor {
		t.Fatalf("want a population-floor finding, got %s", f.Violation)
	}
	if n := len(topo.Scenario); n != 1 {
		t.Errorf("reproducer keeps %d events, want 1:\n%s", n, f.Source)
	}
	// Round bisection must land exactly on the violation round: one round
	// earlier the population has not dropped yet.
	if rounds := topo.Option("rounds", 0); int(rounds) != f.Violation.Round {
		t.Errorf("rounds option = %d, want the violation round %d:\n%s", rounds, f.Violation.Round, f.Source)
	}
	// Population halving stops at the floor (8, or 4 per component).
	floor := 4 * len(topo.Components)
	if floor < 8 {
		floor = 8
	}
	if nodes := int(topo.Option("nodes", 0)); nodes != floor {
		t.Errorf("nodes option = %d, want the shrinker floor %d:\n%s", nodes, floor, f.Source)
	}
	if f.ShrinkSteps == 0 || f.CandidateRuns < f.ShrinkSteps {
		t.Errorf("implausible shrink accounting: %d steps over %d candidate runs", f.ShrinkSteps, f.CandidateRuns)
	}
}

// TestReduceEvent covers the magnitude ladder per event kind.
func TestReduceEvent(t *testing.T) {
	kill := spec.ScenarioEvent{Kind: spec.ScenKill, Fraction: 0.08}
	if !reduceEvent(&kill) || kill.Fraction != 0.04 {
		t.Errorf("kill 0.08 should halve to 0.04, got %v", kill.Fraction)
	}
	atFloor := spec.ScenarioEvent{Kind: spec.ScenChurn, Fraction: 0.01}
	if reduceEvent(&atFloor) {
		t.Errorf("churn 0.01 is at the floor, must not reduce")
	}
	join := spec.ScenarioEvent{Kind: spec.ScenJoin, Count: 5}
	if !reduceEvent(&join) || join.Count != 2 {
		t.Errorf("join 5 should halve to 2, got %d", join.Count)
	}
	one := spec.ScenarioEvent{Kind: spec.ScenJoin, Count: 1}
	if reduceEvent(&one) {
		t.Errorf("join 1 is at the floor, must not reduce")
	}
	part := spec.ScenarioEvent{Kind: spec.ScenPartition, Count: 3}
	if !reduceEvent(&part) || part.Count != 2 {
		t.Errorf("partition 3 should step to 2, got %d", part.Count)
	}
	reconf := spec.ScenarioEvent{Kind: spec.ScenReconfigure}
	if reduceEvent(&reconf) {
		t.Errorf("reconfigure has no magnitude to reduce")
	}
}

// TestCloneSpecIsolation guards the shrinker's candidate isolation: edits
// to a clone must never leak into the original.
func TestCloneSpecIsolation(t *testing.T) {
	base, err := dsl.ParseTopology(`
topology t {
    nodes 16
    component a grid { weight 1 param width 3 port p }
    component b ring { weight 1 port q }
    link a.p b.q
    scenario {
        at 3 kill 0.5
        during 5 9 loss 0.2
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	c := cloneSpec(base)
	c.Scenario[0].Fraction = 0.25
	c.Scenario = c.Scenario[:1]
	c.SetOption("nodes", 8)
	c.Components[0].Params["width"] = 99
	c.Components[0].Ports[0] = "zzz"
	c.Links[0].A.Port = "zzz"
	if base.Scenario[0].Fraction != 0.5 || len(base.Scenario) != 2 {
		t.Error("scenario edit leaked into the original")
	}
	if base.Option("nodes", 0) != 16 {
		t.Error("option edit leaked into the original")
	}
	if base.Components[0].Params["width"] != 3 {
		t.Error("param edit leaked into the original")
	}
	if base.Components[0].Ports[0] != "p" {
		t.Error("port edit leaked into the original")
	}
	if base.Links[0].A.Port == "zzz" {
		t.Error("link edit leaked into the original")
	}
}

// TestReproducerHeaderMentionsReplay sanity-checks that the committed .in
// header tells a reader how to replay the file (the corpus's only
// documentation that travels with the entry).
func TestReproducerHeaderMentionsReplay(t *testing.T) {
	f := &Finding{
		RunID:     RunID{Topology: "treeline"},
		Violation: Violation{Invariant: InvReconverge},
		Source:    "topology treeline {\n}\n",
	}
	dir := t.TempDir()
	inPath, _, err := f.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.ReadFile(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(in), "go run ./cmd/sos play testdata/corpus/"+f.Name()+".in") {
		t.Errorf(".in header lost its replay instructions:\n%s", in)
	}
}
