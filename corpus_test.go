package sosf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sosf/internal/campaign"
)

// TestCorpusReplaysByteIdentical replays every committed fuzzing
// reproducer under testdata/corpus and requires the exact golden event
// stream: each .in file is a minimal .sos distilled by `sos fuzz` from a
// real (seeded) invariant violation, and its .out file is the JSONL
// stream that replay produced when the entry was committed. Any byte of
// drift means runtime behavior changed — regenerate the corpus with
// testdata/corpus/generate-corpus.sh if the change is intentional.
func TestCorpusReplaysByteIdentical(t *testing.T) {
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.in"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/corpus — the regression corpus is gone")
	}
	for _, inPath := range entries {
		name := strings.TrimSuffix(filepath.Base(inPath), ".in")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(inPath)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(strings.TrimSuffix(inPath, ".in") + ".out")
			if err != nil {
				t.Fatalf("corpus entry has no golden stream: %v", err)
			}
			var got bytes.Buffer
			if _, err := campaign.Replay(string(src), &got); err != nil {
				t.Fatalf("replay failed: %v", err)
			}
			if !bytes.Equal(got.Bytes(), golden) {
				t.Errorf("replayed stream differs from %s.out (%d vs %d bytes) — runtime behavior changed; see the header of %s",
					name, got.Len(), len(golden), inPath)
			}
		})
	}
}

// TestCorpusRegenerates reruns the campaign that distilled the committed
// corpus — generate-corpus.sh's `sos fuzz -seed 3 -runs 3 -pop-floor 0.95`
// — and requires exactly the committed file set, byte for byte: the
// shrinker must still distill the same reproducers, down to the "accepted
// steps over candidate runs" header lines.
func TestCorpusRegenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("a three-run campaign with shrinking")
	}
	findings, err := campaign.New(campaign.Config{Seed: 3, Runs: 3, PopulationFloor: 0.95}).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := range findings {
		if _, _, err := findings[i].Write(dir); err != nil {
			t.Fatal(err)
		}
	}
	ins, _ := filepath.Glob(filepath.Join("testdata", "corpus", "*.in"))
	outs, _ := filepath.Glob(filepath.Join("testdata", "corpus", "*.out"))
	want := append(ins, outs...)
	got, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(got) != len(want) {
		t.Errorf("campaign wrote %d corpus files, %d are committed", len(got), len(want))
	}
	for _, path := range want {
		name := filepath.Base(path)
		wantBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("campaign no longer writes %s: %v", name, err)
			continue
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("regenerated %s differs from the committed file — regenerate the corpus with testdata/corpus/generate-corpus.sh if the change is intentional", name)
		}
	}
}
