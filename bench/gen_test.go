package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sosf"
)

var update = flag.Bool("update", false, "rewrite testdata/seed1.* from the generator")

// TestSeed1InputsCommitted regenerates the default run's inputs and wants
// them byte-identical to the committed copies: the default run is
// reproducible, and a change to the generator shows in review.
func TestSeed1InputsCommitted(t *testing.T) {
	in := Generate(1, fullSizing(10))
	files := map[string][]byte{
		"seed1.steady.sos": []byte(in.Steady),
		"seed1.faults.sos": []byte(in.Faults),
		"seed1.serve.json": append(in.ServeSpec, '\n'),
	}
	for name, got := range files {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: generator output differs from the committed file (go test -run Seed1 -update rewrites it)", path)
		}
	}
}

// TestGeneratedSourcesValidate checks a few held-out seeds compile, at both
// sizings, and that the seed changes the inputs.
func TestGeneratedSourcesValidate(t *testing.T) {
	for _, sz := range []Sizing{fullSizing(10), smokeSizing} {
		seen := map[string]bool{}
		for seed := int64(1); seed <= 5; seed++ {
			in := Generate(seed, sz)
			for _, src := range []string{in.Steady, in.Faults} {
				if err := sosf.Validate(src); err != nil {
					t.Fatalf("seed %d: %v\n%s", seed, err, src)
				}
			}
			if seen[in.Faults] {
				t.Errorf("seed %d generated the same faults source as an earlier seed", seed)
			}
			seen[in.Faults] = true
		}
	}
}
