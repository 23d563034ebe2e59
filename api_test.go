package sosf

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// --- functional options ---------------------------------------------------

// TestSeedZeroIsRepresentable is the regression test for the zero-value
// wart: WithSeed(0) must run seed 0, not silently become the default 1.
func TestSeedZeroIsRepresentable(t *testing.T) {
	seed0a, err := Run(pairSrc, WithSeed(0), WithRounds(40), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	seed0b, err := Run(pairSrc, WithSeed(0), WithRounds(40), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seed0a, seed0b) {
		t.Fatal("seed 0 must be deterministic")
	}
	seed1, err := Run(pairSrc, WithSeed(1), WithRounds(40), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(seed0a, seed1) {
		t.Fatal("WithSeed(0) must run seed 0, not fall back to the default seed 1")
	}
}

// TestRoundsZeroIsRepresentable: WithRounds(0) builds the system and
// simulates nothing.
func TestRoundsZeroIsRepresentable(t *testing.T) {
	rep, err := Run(pairSrc, WithRounds(0), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 0 {
		t.Fatalf("WithRounds(0) executed %d rounds", rep.Rounds)
	}
	if rep.Nodes != 120 {
		t.Fatalf("system must still be built: %d nodes", rep.Nodes)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := [][]Option{
		{WithNodes(-1)},
		{WithRounds(-1)},
		{WithLoss(-0.1)},
		{WithLoss(1.0)},
		{WithChurn(1.5)},
		{WithWorkers(-3)},
	}
	for i, opts := range cases {
		if _, err := New(pairSrc, opts...); err == nil {
			t.Fatalf("case %d: invalid option accepted", i)
		}
	}
}

// --- machine-readable report ---------------------------------------------

func TestReportJSONStableFieldNames(t *testing.T) {
	rep, err := Run(pairSrc, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		`"topology"`, `"components"`, `"links"`, `"nodes"`, `"rounds"`,
		`"converged"`, `"subs"`, `"baseline_bytes"`, `"overhead_bytes"`,
		`"name"`, `"converged_at"`, `"final"`,
	} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("report JSON missing %s:\n%s", field, raw)
		}
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep, back) {
		t.Fatal("report does not round-trip through JSON")
	}
}

// --- targeted failure injection ------------------------------------------

func TestKillComponent(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	before := sys.Report().Nodes
	killed := sys.KillComponent("left")
	if killed <= 0 {
		t.Fatal("killing an existing component must fail nodes")
	}
	if got := sys.Report().Nodes; got != before-killed {
		t.Fatalf("population %d after killing %d of %d", got, killed, before)
	}
	// Ports of an emptied component have no manager any more.
	if _, ok := sys.Managers()["left.out"]; ok {
		t.Fatal("an emptied component must not elect port managers")
	}
	if _, ok := sys.Managers()["right.in"]; !ok {
		t.Fatal("the surviving component keeps its port manager")
	}
	if got := sys.KillComponent("no_such_component"); got != 0 {
		t.Fatalf("unknown component killed %d nodes", got)
	}
}

func TestReconfigureSourceRejectsBadSource(t *testing.T) {
	sys, err := New(pairSrc, WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ReconfigureSource("topology broken {"); err == nil {
		t.Fatal("invalid reconfiguration source accepted")
	}
	if err := sys.ReconfigureSource("topology t { component c blob }"); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

// --- scenario API ---------------------------------------------------------

// threeSrc is pairSrc with a third ring spliced in between.
var threeSrc = strings.Replace(pairSrc, "link left.out right.in",
	"component mid ring { weight 1 port a port b }\n link left.out mid.a\n link mid.b right.in", 1)

// demoSrc is pairSrc carrying a timeline that reaches every action kind
// except snapshot; the reconfigure target is threeSrc's body.
var demoSrc = withScenario(pairSrc,
	"during 5 8 loss 0.2",
	"at 10 kill 0.25",
	"at 15 join 30",
	"at 20 reconfigure {"+threeSrc[strings.Index(threeSrc, "{")+1:strings.LastIndex(threeSrc, "}")]+"}",
	"during 30 33 churn 0.02",
	"at 36 partition 2",
	"at 38 heal",
	"at 40 kill component mid",
)

// playRun executes the demo scenario and returns the JSONL event stream
// plus the final report.
func playRun(t *testing.T) (string, *Report) {
	t.Helper()
	var buf bytes.Buffer
	sys, err := New(demoSrc, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	sys.Subscribe(JSONLSink(&buf))
	if _, err := sys.Step(50); err != nil {
		t.Fatal(err)
	}
	return buf.String(), sys.Report()
}

// TestScenarioDeterminism: same seed + same scenario must produce a
// byte-identical event stream and an identical final report.
func TestScenarioDeterminism(t *testing.T) {
	streamA, repA := playRun(t)
	streamB, repB := playRun(t)
	if streamA != streamB {
		t.Fatal("event streams differ between identical runs")
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("final reports differ:\n%v\nvs\n%v", repA, repB)
	}
}

func TestScenarioEventStream(t *testing.T) {
	stream, rep := playRun(t)
	lines := strings.Split(strings.TrimSpace(stream), "\n")
	if len(lines) != 50 {
		t.Fatalf("got %d events, want one per round (50)", len(lines))
	}
	byRound := make(map[int]RoundEvent, len(lines))
	for _, line := range lines {
		var ev RoundEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if len(ev.Accuracy) != 5 {
			t.Fatalf("round %d: %d accuracy series", ev.Round, len(ev.Accuracy))
		}
		byRound[ev.Round] = ev
	}
	for round, want := range map[int]string{
		5:  "loss 0.2",
		8:  "loss restored",
		10: "kill 0.25",
		15: "join 30",
		20: "reconfigure",
		30: "churn 0.02",
		36: "partition 2",
		38: "heal",
		40: "kill component mid",
	} {
		found := false
		for _, a := range byRound[round].Actions {
			if strings.Contains(a, want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("round %d: actions %v do not mention %q", round, byRound[round].Actions, want)
		}
	}
	if len(byRound[3].Actions) != 0 {
		t.Fatalf("quiet round carries actions: %v", byRound[3].Actions)
	}
	// The kill at round 10 and the join at 15 move the population.
	if byRound[10].Nodes >= byRound[9].Nodes {
		t.Fatal("kill must shrink the population")
	}
	if byRound[15].Nodes != byRound[14].Nodes+30 {
		t.Fatal("join must grow the population by 30")
	}
	// The reconfiguration took: the final report describes three rings.
	if rep.Components != 3 || rep.Links != 2 {
		t.Fatalf("final report = %+v", rep)
	}
}

func TestScenarioValidationAtNew(t *testing.T) {
	cases := []string{
		"at 5 kill 1.5",
		"at -1 kill 0.5",
		"during 9 3 loss 0.1",
		"at 5 reconfigure { component c blob }",
		"at 5 kill component ghost",
		"at 5 explode",
	}
	for i, line := range cases {
		if _, err := New(withScenario(pairSrc, line)); err == nil {
			t.Fatalf("case %d (%s): invalid scenario accepted", i, line)
		}
	}
}

func TestScenarioHorizonAndRunToEnd(t *testing.T) {
	sys, err := New(withScenario(pairSrc, "at 42 kill 0.1"), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ScenarioHorizon(); got != 42 {
		t.Fatalf("ScenarioHorizon() = %d, want 42", got)
	}
	// A scenario implies run-to-end: the system must not stop at its
	// (early) convergence, or the kill would never fire.
	executed, err := sys.Step(45)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 45 {
		t.Fatalf("scenario run stopped early after %d rounds", executed)
	}
	if sys.Report().Nodes >= 120 {
		t.Fatal("the scheduled kill never fired")
	}
}

func TestCSVSink(t *testing.T) {
	var buf bytes.Buffer
	sys, err := New(pairSrc, WithSeed(6), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	sys.Subscribe(CSVSink(&buf))
	if _, err := sys.Step(3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "round,nodes,converged,baseline_bytes,overhead_bytes,Elementary Topology") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], ",heals,actions") {
		t.Fatalf("header = %q, want trailing heals,actions columns", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,120,false,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

// TestRunPlaysWholeTimeline: without an explicit WithRounds, Run must
// extend past the default 150-round cap to the scenario horizon so no
// scheduled action is silently truncated.
func TestRunPlaysWholeTimeline(t *testing.T) {
	src := withScenario(pairSrc, "at 200 kill 0.5")
	rep, err := Run(src, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 200 {
		t.Fatalf("Run executed %d rounds, want the 200-round horizon", rep.Rounds)
	}
	if rep.Nodes != 60 {
		t.Fatalf("the kill at the horizon never fired: %d nodes", rep.Nodes)
	}
	// An explicit WithRounds still wins over the horizon.
	capped, err := Run(src, WithSeed(13), WithRounds(50))
	if err != nil {
		t.Fatal(err)
	}
	if capped.Rounds != 50 || capped.Nodes != 120 {
		t.Fatalf("WithRounds must cap the run: %+v", capped)
	}
}

// TestOverlappingStatefulWindowsRejected: loss/partition windows save and
// restore state, so overlapping same-state events must fail validation.
func TestOverlappingStatefulWindowsRejected(t *testing.T) {
	bad := [][]string{
		{"during 10 20 loss 0.5", "during 15 30 loss 0.2"},
		{"during 10 20 loss 0.5", "during 20 30 loss 0.2"}, // shared boundary
		{"during 10 20 loss 0.5", "at 15 loss 0.2"},
		{"during 10 20 partition 2", "at 15 partition 3"},
		{"during 10 20 partition 2", "at 15 heal"},
	}
	for i, lines := range bad {
		if _, err := New(withScenario(pairSrc, lines...)); err == nil {
			t.Fatalf("case %d: overlapping windows accepted", i)
		}
	}
	good := [][]string{
		{"during 10 20 loss 0.5", "during 25 30 loss 0.2"},
		{"at 5 loss 0.1", "during 20 30 loss 0.5"}, // point before the window
		{"at 10 partition 2", "at 20 heal"},
		{"during 10 20 loss 0.5", "during 10 20 partition 2"}, // different state
	}
	for i, lines := range good {
		if _, err := New(withScenario(pairSrc, lines...)); err != nil {
			t.Fatalf("case %d: legal timeline rejected: %v", i, err)
		}
	}
}
