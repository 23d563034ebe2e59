package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"sosf"
	"sosf/internal/dsl"
	"sosf/internal/spec"
)

// JobSpec is the JSON body of POST /jobs. Exactly one of Source (inline
// .sos DSL) and Topology (a compiled topology, in the same JSON encoding
// snapshots use) must be set; a Topology is normalized to canonical DSL on
// submission, so every job — however submitted — is backed by one DSL
// source string, which is also what eviction restores rebuild from.
//
// A request body that does not start with '{' is taken to be raw .sos DSL,
// mirroring how aistore's dSort accepts inline JSON specs next to files.
type JobSpec struct {
	// Name labels the job in listings; defaults to the topology name.
	Name string `json:"name,omitempty"`
	// Source is inline .sos DSL.
	Source string `json:"source,omitempty"`
	// Topology is the compiled alternative to Source.
	Topology *spec.Topology `json:"topology,omitempty"`
	// Nodes overrides the population size (0: the file's `nodes` option).
	Nodes int `json:"nodes,omitempty"`
	// Rounds caps the run; nil follows the file's `option rounds`, then
	// the library default, extended to the scenario horizon like play.
	Rounds *int `json:"rounds,omitempty"`
	// Seed pins the run's randomness; nil follows the file's
	// `option seed`, then the library default.
	Seed *int64 `json:"seed,omitempty"`
	// Workers pins the worker count sharding each simulation round; 0
	// takes the server's default (`sos serve -workers`). Any value
	// produces byte-identical event streams.
	Workers int `json:"workers,omitempty"`
}

// ErrSnapshotAction refuses a job whose timeline carries a `snapshot`
// action: the action writes a file wherever its path points, and a
// submitted spec must not choose files on the server. Checkpoints the
// server needs (eviction) it writes under Config.Dir itself.
var ErrSnapshotAction = errors.New("serve: job timelines must not carry snapshot actions")

// parseJobSpec turns a POST /jobs body — raw .sos DSL or a JSON JobSpec —
// into the job's name and its validated run description. It refuses what
// sosf.New would refuse of the source (a syntax error, `option heal`:
// sosf.ErrHealOptionRemoved) and a timeline with a `snapshot` action
// (ErrSnapshotAction). The description is retained for the job's whole
// life: an eviction restore must rebuild with byte-identical options.
// Workers stays 0 when the spec leaves it to the server's default, which
// Submit fills in.
func parseJobSpec(body []byte) (string, sosf.RunSpec, error) {
	var rs sosf.RunSpec
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return "", rs, fmt.Errorf("empty job spec")
	}
	// Raw DSL is a spec that sets only its source, kept verbatim.
	js := JobSpec{Source: string(trimmed)}
	if trimmed[0] == '{' {
		js = JobSpec{}
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&js); err != nil {
			return "", rs, fmt.Errorf("job spec JSON: %w", err)
		}
		if js.Source != "" && js.Topology != nil {
			return "", rs, fmt.Errorf("job spec sets both source and topology; pick one")
		}
	}
	rs = sosf.RunSpec{Nodes: js.Nodes, Rounds: js.Rounds, Seed: js.Seed, Workers: js.Workers}
	switch {
	case js.Source != "":
		rs.Source = js.Source
	case js.Topology != nil:
		if err := js.Topology.Validate(); err != nil {
			return "", rs, err
		}
		// Normalize to canonical DSL: Emit is the identity under the
		// compiler, so the emitted source IS the submitted topology.
		src, err := dsl.Emit(js.Topology)
		if err != nil {
			return "", rs, fmt.Errorf("job spec topology has no DSL form: %w", err)
		}
		rs.Source = src
	default:
		return "", rs, fmt.Errorf("job spec needs source (inline .sos DSL) or topology")
	}
	// Compile now, with New's checks, so submission (not start) reports
	// what would fail the run.
	topo, err := sosf.ParseSource(rs.Source)
	if err != nil {
		return "", rs, err
	}
	for _, ev := range topo.Scenario {
		if ev.Kind == spec.ScenSnapshot {
			return "", rs, fmt.Errorf("%w (%s)", ErrSnapshotAction, ev)
		}
	}
	name := js.Name
	if name == "" {
		name = topo.Name
	}
	// The wire's workers takes WithWorkers' range (>= 0), not the spec's.
	if err := rs.Check(sosf.WithWorkers(js.Workers)); err != nil {
		return "", rs, fmt.Errorf("job spec: %w", err)
	}
	return name, rs, nil
}
