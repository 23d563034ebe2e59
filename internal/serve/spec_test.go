package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"sosf/internal/dsl"
)

const specTestDSL = `topology demo {
    nodes 40
    component a ring {
        port p
    }
    component b ring {
        port p
    }
    link a.p b.p
}`

// withSnapshotAction returns specTestDSL with a timeline whose one action
// writes a checkpoint to path.
func withSnapshotAction(path string) string {
	return strings.Replace(specTestDSL, "link a.p b.p",
		"link a.p b.p\n    scenario { at 2 snapshot \""+path+"\" }", 1)
}

func TestParseJobSpecRawDSL(t *testing.T) {
	name, rs, err := parseJobSpec([]byte(specTestDSL))
	if err != nil {
		t.Fatal(err)
	}
	if name != "demo" {
		t.Errorf("name = %q, want demo (the topology name)", name)
	}
	if rs.Source != specTestDSL {
		t.Errorf("raw DSL submission must retain the source verbatim")
	}
	if rs.Rounds != nil || rs.Seed != nil {
		t.Errorf("unset rounds/seed must stay unset, got %v/%v", rs.Rounds, rs.Seed)
	}
}

func TestParseJobSpecJSONSource(t *testing.T) {
	body, _ := json.Marshal(JobSpec{Name: "mine", Source: specTestDSL, Nodes: 80, Workers: 2})
	name, rs, err := parseJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mine" || rs.Nodes != 80 || rs.Workers != 2 {
		t.Errorf("name = %q, spec = %+v, want name=mine nodes=80 workers=2", name, rs)
	}
}

func TestParseJobSpecJSONTopology(t *testing.T) {
	topo, err := dsl.ParseTopology(specTestDSL)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 7
	body, _ := json.Marshal(JobSpec{Topology: topo, Rounds: &rounds})
	name, rs, err := parseJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if name != "demo" {
		t.Errorf("name = %q, want demo", name)
	}
	if rs.Rounds == nil || *rs.Rounds != 7 {
		t.Errorf("rounds = %v, want 7", rs.Rounds)
	}
	// The topology normalizes to canonical DSL that compiles back to the
	// same topology — the single rebuild path eviction restores rely on.
	back, err := dsl.ParseTopology(rs.Source)
	if err != nil {
		t.Fatalf("normalized source does not compile: %v", err)
	}
	src2, err := dsl.Emit(back)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != rs.Source {
		t.Errorf("normalized DSL is not a fixed point of emit∘compile:\n%s\nvs\n%s", rs.Source, src2)
	}
}

func TestParseJobSpecRejects(t *testing.T) {
	topo, err := dsl.ParseTopology(specTestDSL)
	if err != nil {
		t.Fatal(err)
	}
	both, _ := json.Marshal(JobSpec{Source: specTestDSL, Topology: topo})
	neg := -1
	negRounds, _ := json.Marshal(JobSpec{Source: specTestDSL, Rounds: &neg})
	negNodes, _ := json.Marshal(JobSpec{Source: specTestDSL, Nodes: -5})
	negWorkers, _ := json.Marshal(JobSpec{Source: specTestDSL, Workers: -2})
	snapDSL := withSnapshotAction("elsewhere.sosnap")
	snapTopo, err := dsl.ParseTopology(snapDSL)
	if err != nil {
		t.Fatal(err)
	}
	snapSource, _ := json.Marshal(JobSpec{Source: snapDSL})
	snapTopology, _ := json.Marshal(JobSpec{Topology: snapTopo})
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", "  \n ", "empty job spec"},
		{"bad DSL", "topology oops {", ""},
		{"bad JSON", `{"source": `, "job spec JSON"},
		{"unknown field", `{"sauce": "x"}`, "job spec JSON"},
		{"both source and topology", string(both), "pick one"},
		{"neither", `{"name": "x"}`, "needs source"},
		{"negative nodes", string(negNodes), "nodes must be >= 0"},
		{"negative rounds", string(negRounds), "rounds must be >= 0"},
		{"negative workers", string(negWorkers), "workers must be >= 0"},
		{"snapshot action, raw DSL", snapDSL, ErrSnapshotAction.Error()},
		{"snapshot action, JSON source", string(snapSource), ErrSnapshotAction.Error()},
		{"snapshot action, JSON topology", string(snapTopology), ErrSnapshotAction.Error()},
	}
	for _, tc := range cases {
		_, _, err := parseJobSpec([]byte(tc.body))
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
