package scenario

// End-to-end coverage of the full DSL path for partition/heal (and the new
// snapshot directive): a .sos source with `partition`/`heal` directives is
// parsed by internal/dsl, compiled into spec.ScenarioEvent values, and
// executed through a bound timeline against a live system — the chain the
// engine-level partition tests in workers_test.go never exercise.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sosf/internal/core"
	"sosf/internal/dsl"
	"sosf/internal/sim"
	"sosf/internal/spec"
)

// parseScenario compiles DSL source and returns the topology.
func parseScenario(t *testing.T, src string) *spec.Topology {
	t.Helper()
	topo, err := dsl.ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// bindAndRun builds a system for topo, binds its timeline, and runs it
// round by round, recording whether the engine was partitioned after each.
func bindAndRun(t *testing.T, topo *spec.Topology, rounds int) (partitioned []bool, b *Bound) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Topology: topo, Nodes: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _ = play(t, sys, New(topo.Scenario))
	for i := 0; i < rounds; i++ {
		if _, err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		partitioned = append(partitioned, split(sys.Engine()))
	}
	return partitioned, b
}

func TestDSLPartitionWindowEndToEnd(t *testing.T) {
	topo := parseScenario(t, `topology split {
	    nodes 80
	    component a ring { port p }
	    component b ring { port q }
	    link a.p b.q
	    scenario {
	        during 5 12 partition 2
	    }
	}`)
	if len(topo.Scenario) != 1 || topo.Scenario[0].Kind != spec.ScenPartition {
		t.Fatalf("compiled scenario = %+v, want one partition window", topo.Scenario)
	}
	if topo.Scenario[0].From != 5 || topo.Scenario[0].To != 12 || topo.Scenario[0].Count != 2 {
		t.Fatalf("partition window = %+v, want during 5 12 with 2 groups", topo.Scenario[0])
	}

	partitioned, _ := bindAndRun(t, topo, 20)
	for round := 1; round <= 20; round++ {
		want := round >= 5 && round < 12 // healed by the window end at 12
		if got := partitioned[round-1]; got != want {
			t.Fatalf("after round %d: partitioned = %v, want %v", round, got, want)
		}
	}
}

func TestDSLPartitionThenExplicitHealEndToEnd(t *testing.T) {
	topo := parseScenario(t, `topology splitheal {
	    nodes 80
	    component a ring { port p }
	    component b ring { port q }
	    link a.p b.q
	    scenario {
	        at 4 partition 3
	        at 9 heal
	    }
	}`)
	if len(topo.Scenario) != 2 || topo.Scenario[1].Kind != spec.ScenHeal {
		t.Fatalf("compiled scenario = %+v, want partition then heal", topo.Scenario)
	}

	partitioned, b := bindAndRun(t, topo, 15)
	for round := 1; round <= 15; round++ {
		want := round >= 4 && round < 9
		if got := partitioned[round-1]; got != want {
			t.Fatalf("after round %d: partitioned = %v, want %v", round, got, want)
		}
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDSLPartitionOverlapRejected: the spec validator must refuse a heal
// inside a partition window — DSL source included so the whole path errors.
func TestDSLPartitionOverlapRejected(t *testing.T) {
	_, err := dsl.ParseTopology(`topology bad {
	    nodes 80
	    component a ring { port p }
	    component b ring { port q }
	    link a.p b.q
	    scenario {
	        during 5 15 partition 2
	        at 10 heal
	    }
	}`)
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("err = %v, want window-conflict rejection", err)
	}
}

// TestDSLSnapshotDirectiveEndToEnd: the `snapshot` action parses,
// compiles, and is reported by exactly the tick of its round. The scenario
// package writes nothing and never fails on it: the checkpoint is the
// embedder's to write.
func TestDSLSnapshotDirectiveEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.sosnap")
	topo := parseScenario(t, `topology ck {
	    nodes 80
	    component a ring { port p }
	    component b ring { port q }
	    link a.p b.q
	    scenario {
	        at 3 snapshot "`+path+`"
	    }
	}`)
	if len(topo.Scenario) != 1 || topo.Scenario[0].Kind != spec.ScenSnapshot || topo.Scenario[0].Path != path {
		t.Fatalf("compiled scenario = %+v, want one snapshot at 3", topo.Scenario)
	}

	sys, err := core.NewSystem(core.Config{Topology: topo, Nodes: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, last := play(t, sys, New(topo.Scenario))
	var due [][]string
	sys.Engine().Observe(sim.ObserverFunc(func(*sim.Engine) bool {
		due = append(due, append([]string(nil), last.Snapshots...))
		return false
	}))
	if _, err := sys.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	for i, paths := range due {
		want := 0
		if i+1 == 3 {
			want = 1
		}
		if len(paths) != want || (want == 1 && paths[0] != path) {
			t.Fatalf("round %d reported snapshots %v, want %d with the DSL path", i+1, paths, want)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the scenario package wrote the checkpoint (stat err = %v)", err)
	}
}
