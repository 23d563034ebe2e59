package campaign

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sosf"
)

// Replay executes a reproducer's DSL source exactly as
// `sos play -events jsonl file.sos` does — the file's own seed, population,
// and round budget, extended to the scenario horizon, never stopping at
// convergence — streaming the JSONL round events to w. This is the single
// definition of "replaying a corpus entry": the campaign writes golden
// .out files through it and the corpus regression test re-checks them
// through it.
func Replay(src string, w io.Writer) (*sosf.Report, error) {
	sys, err := sosf.New(src, sosf.WithRunToEnd())
	if err != nil {
		return nil, err
	}
	sys.Subscribe(sosf.JSONLSink(w))
	if _, err := sys.Step(sys.PlayHorizon()); err != nil {
		return nil, err
	}
	return sys.Report(), nil
}

// Name returns the finding's corpus basename — topology, invariant,
// campaign seed, run index — unique within a campaign and stable across
// reruns of the same seed.
func (f *Finding) Name() string {
	return fmt.Sprintf("%s-%s-c%d-r%d", f.Topology, f.Violation.Invariant, f.CampaignSeed, f.Index)
}

// Write commits the finding under dir as a keep-sorted-style corpus pair:
// Name().in is the minimal .sos reproducer behind a provenance header, and
// Name().out is the golden JSONL event stream its replay must reproduce
// byte for byte. Both files are fully determined by the campaign seed (no
// timestamps, no environment), so regenerating the corpus is always a
// no-op diff unless behavior actually changed.
func (f *Finding) Write(dir string) (inPath, outPath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	name := f.Name()
	inPath = filepath.Join(dir, name+".in")
	outPath = filepath.Join(dir, name+".out")
	var b strings.Builder
	fmt.Fprintf(&b, "# Minimal reproducer distilled by `sos fuzz`.\n")
	fmt.Fprintf(&b, "# Violation: %s\n", f.Violation)
	fmt.Fprintf(&b, "# Campaign seed %d, run %d (%s, %d nodes, run seed %d);\n",
		f.CampaignSeed, f.Index, f.Topology, f.Population, f.Seed)
	fmt.Fprintf(&b, "# shrunk in %d accepted steps over %d candidate runs.\n",
		f.ShrinkSteps, f.CandidateRuns)
	fmt.Fprintf(&b, "# Replay: go run ./cmd/sos play testdata/corpus/%s.in\n", name)
	fmt.Fprintf(&b, "# The stream must stay byte-identical to %s.out (see corpus_test.go).\n", name)
	b.WriteString(strings.TrimLeft(f.Source, "\n"))
	if err := os.WriteFile(inPath, []byte(b.String()), 0o644); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(outPath, f.Events, 0o644); err != nil {
		return "", "", err
	}
	return inPath, outPath, nil
}
