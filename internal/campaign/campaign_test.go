package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sosf"
	"sosf/internal/dsl"
	"sosf/internal/spec"
)

// TestCampaignCleanByDefault is the zero-violation gate of the generative
// campaign: `sos fuzz -seed 1 -runs 6` (the flag defaults give exactly this
// Config) over the built-in seed × topology × population matrix finds
// nothing with the default invariant set. It also exercises the
// resume-equivalence check on every run (a divergence would surface as a
// resume-equivalence finding).
func TestCampaignCleanByDefault(t *testing.T) {
	findings, err := New(Config{Seed: 1, Runs: 6}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding in clean campaign: %s\n%s", f.Violation, f.Source)
	}
}

// TestSeededFindingByteIdentical is the PR's acceptance criterion: a
// deliberately strict invariant (PopulationFloor) makes the runner find
// violations, shrink each to a minimal .sos reproducer, and distill the
// exact same bytes — source and golden event stream — on every rerun of
// the same campaign seed.
func TestSeededFindingByteIdentical(t *testing.T) {
	cfg := Config{Seed: 1, Runs: 3, PopulationFloor: 0.9}
	run := func() []Finding {
		t.Helper()
		fs, err := New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("populationfloor campaign found nothing; the seeded-failure knob is broken")
	}
	if len(a) != len(b) {
		t.Fatalf("finding count differs across reruns: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Errorf("finding %d: reproducer source differs across reruns:\n--- first\n%s\n--- second\n%s", i, a[i].Source, b[i].Source)
		}
		if !bytes.Equal(a[i].Events, b[i].Events) {
			t.Errorf("finding %d: golden event stream differs across reruns", i)
		}
	}
	// Every reproducer must be self-contained (own nodes/seed/rounds) and
	// still violate when replayed through the public corpus entry point.
	for i, f := range a {
		topo, err := dsl.ParseTopology(f.Source)
		if err != nil {
			t.Fatalf("finding %d: reproducer does not parse: %v", i, err)
		}
		for _, opt := range []string{"nodes", "seed", "rounds"} {
			if topo.Option(opt, -1) == -1 {
				t.Errorf("finding %d: reproducer is missing `option %s`", i, opt)
			}
		}
		var out bytes.Buffer
		if _, err := Replay(f.Source, &out); err != nil {
			t.Fatalf("finding %d: replay failed: %v", i, err)
		}
		if !bytes.Equal(out.Bytes(), f.Events) {
			t.Errorf("finding %d: Replay stream differs from the finding's golden stream", i)
		}
	}
}

// TestNoRepairHealsClean is the self-healing gate, `sos fuzz -seed 1
// -runs 6 -no-repair`: the very timelines that exposed the index-hole gap
// are clean once the runtime's self-healing is left on — bare kill/churn
// timelines reconverge on index re-densification alone, without a
// trailing reconfiguration. (That they stay stuck without it is
// internal/core's TestDisabledHealingStaysStuck.)
func TestNoRepairHealsClean(t *testing.T) {
	findings, err := New(Config{Seed: 1, Runs: 6, NoRepair: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.Violation.String())
		}
		t.Fatalf("NoRepair campaign with healing on found %d violation(s):\n%s",
			len(findings), strings.Join(lines, "\n"))
	}
}

// TestGeneratedTimelinesValidate checks the sampler's structural promises
// across many seeds without running any simulation: every generated spec
// passes validation, every fault stays inside the horizon, and the
// timeline ends with the weight-preserving rebalance unless NoRepair.
func TestGeneratedTimelinesValidate(t *testing.T) {
	for _, noRepair := range []bool{false, true} {
		c := New(Config{Seed: 7, Runs: 1, NoRepair: noRepair})
		for idx := 0; idx < 60; idx++ {
			id := c.runID(idx)
			topo, err := c.buildRun(id)
			if err != nil {
				t.Fatalf("noRepair=%v run %d: %v", noRepair, idx, err)
			}
			if len(topo.Scenario) == 0 {
				t.Fatalf("noRepair=%v run %d: empty timeline", noRepair, idx)
			}
			for _, ev := range topo.Scenario {
				if ev.From < 1 || ev.To > c.cfg.Horizon {
					t.Errorf("noRepair=%v run %d: event %v outside [1, %d]", noRepair, idx, ev, c.cfg.Horizon)
				}
			}
			last := topo.Scenario[len(topo.Scenario)-1]
			if !noRepair {
				if last.Kind != spec.ScenReconfigure || last.From != c.cfg.Horizon {
					t.Errorf("run %d: timeline does not end with the trailing rebalance at round %d: %+v", idx, c.cfg.Horizon, last)
				}
			}
		}
	}
}

// TestInvariantChecks unit-tests each invariant against hand-built runs.
func TestInvariantChecks(t *testing.T) {
	ev := func(round int, converged bool, nodes int, bytes float64) sosf.RoundEvent {
		return sosf.RoundEvent{
			Round: round, Nodes: nodes, Converged: converged,
			BaselineBytes: bytes, OverheadBytes: 0,
			Accuracy: map[string]float64{"Elementary Topology": 0.9},
		}
	}
	mkRun := func(rounds, lastFault int, convergedAt int) *Run {
		r := &Run{Rounds: rounds, LastFault: lastFault, InitialNodes: 64}
		for i := 1; i <= rounds; i++ {
			r.Events = append(r.Events, ev(i, i == convergedAt, 64, 1000))
		}
		return r
	}

	t.Run("reconverge violated", func(t *testing.T) {
		v := Reconverge{Within: 10}.Check(mkRun(20, 5, 0))
		if v == nil || v.Round != 15 {
			t.Fatalf("want violation at round 15, got %v", v)
		}
		// The detail must name the stuck layer so reproducer headers stay
		// actionable.
		if !strings.Contains(v.Detail, "Elementary Topology stuck since round 1") {
			t.Fatalf("reconverge detail does not diagnose the stuck layer: %q", v.Detail)
		}
	})
	t.Run("reconverge satisfied", func(t *testing.T) {
		if v := (Reconverge{Within: 10}).Check(mkRun(20, 5, 12)); v != nil {
			t.Fatalf("converged at 12 within (5, 15] but got %v", v)
		}
	})
	t.Run("reconverge short run proves nothing", func(t *testing.T) {
		// The shrinker's round bisection relies on this: a run shorter
		// than the deadline cannot shrink the violation away.
		if v := (Reconverge{Within: 10}).Check(mkRun(14, 5, 0)); v != nil {
			t.Fatalf("run of 14 rounds cannot judge a deadline of 15, got %v", v)
		}
	})
	t.Run("bandwidth flags first offending round", func(t *testing.T) {
		r := mkRun(5, 0, 1)
		r.Events[2].OverheadBytes = 5000
		r.Events[4].OverheadBytes = 9000
		v := BandwidthCeiling{MaxBytes: 4096}.Check(r)
		if v == nil || v.Round != 3 {
			t.Fatalf("want violation at round 3, got %v", v)
		}
		if v := (BandwidthCeiling{MaxBytes: 8192}).Check(mkRun(5, 0, 1)); v != nil {
			t.Fatalf("all rounds under ceiling but got %v", v)
		}
	})
	t.Run("population floor", func(t *testing.T) {
		r := mkRun(5, 0, 1)
		r.Events[3].Nodes = 40
		v := PopulationFloor{MinFraction: 0.9}.Check(r)
		if v == nil || v.Round != 4 {
			t.Fatalf("want violation at round 4, got %v", v)
		}
		if v := (PopulationFloor{MinFraction: 0.5}).Check(r); v != nil {
			t.Fatalf("40 of 64 is above a 50%% floor, got %v", v)
		}
	})
	t.Run("orphan tail without a system", func(t *testing.T) {
		if v := (OrphanTail{}).Check(mkRun(3, 0, 1)); v != nil {
			t.Fatalf("no system attached, want nil, got %v", v)
		}
	})
}

// TestFindingWrite checks the corpus pair layout: deterministic naming, a
// provenance header in front of the reproducer, and the golden stream
// byte-for-byte in the .out file.
func TestFindingWrite(t *testing.T) {
	f := &Finding{
		RunID:        RunID{Index: 4, Topology: "ringpair", Population: 96, Seed: 42},
		CampaignSeed: 1,
		Violation:    Violation{Invariant: InvPopulationFloor, Round: 5, Detail: "population 3 fell below the floor"},
		Source:       "\ntopology ringpair {\n}\n",
		Events:       []byte(`{"round":1}` + "\n"),
		ShrinkSteps:  3, CandidateRuns: 9,
	}
	if got, want := f.Name(), "ringpair-population-floor-c1-r4"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	dir := t.TempDir()
	inPath, outPath, err := f.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.ReadFile(inPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(in)
	for _, want := range []string{
		"# Violation: population-floor at round 5",
		"# Campaign seed 1, run 4 (ringpair, 96 nodes, run seed 42)",
		"topology ringpair {",
	} {
		if !strings.Contains(text, want) {
			t.Errorf(".in file is missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\n\ntopology") || strings.HasPrefix(text, "\n") {
		t.Errorf(".in file carries a leading blank line:\n%q", text)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, f.Events) {
		t.Errorf(".out file differs from the finding's golden stream")
	}
	if filepath.Dir(inPath) != dir || filepath.Dir(outPath) != dir {
		t.Errorf("corpus files written outside %s: %s, %s", dir, inPath, outPath)
	}
}

// TestDeriveSeed pins the two properties reproducers rely on: derived
// seeds are non-negative (the DSL has no negative literals, so `option
// seed` must round-trip) and distinct salts decorrelate.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for salt := uint64(0); salt < 1000; salt++ {
		s := deriveSeed(-12345, salt)
		if s < 0 {
			t.Fatalf("deriveSeed(-12345, %d) = %d, want non-negative", salt, s)
		}
		if seen[s] {
			t.Fatalf("deriveSeed collision at salt %d", salt)
		}
		seen[s] = true
	}
	if deriveSeed(1, 7) != deriveSeed(1, 7) {
		t.Fatal("deriveSeed is not a pure function")
	}
}

// TestWorkersRule: `sos fuzz -workers 0` hands the campaign Workers -1, and
// its runs shard across GOMAXPROCS workers; Workers 0 runs serially.
func TestWorkersRule(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, tc := range []struct{ workers, want int }{
		{-1, runtime.GOMAXPROCS(0)},
		{0, 1},
	} {
		c := New(Config{Seed: 1, Runs: 1, Workers: tc.workers})
		topo, err := c.buildRun(c.runID(0))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.execute(topo, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Sys.Engine().Workers(); got != tc.want {
			t.Errorf("Config.Workers %d: engine runs %d workers, want %d", tc.workers, got, tc.want)
		}
	}
}
