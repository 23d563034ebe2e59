package sosf

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"sosf/internal/snap"
)

// snapshotBytes checkpoints sys into memory.
func snapshotBytes(t testing.TB, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotGrowthPerRound pins what a checkpoint keeps per round: the
// meter's bandwidth row (one varint per protocol, ~16 B on ringpair) and
// nothing else. A per-round section anywhere else, such as a history of
// accuracy metrics (~43 B a round), breaks the bound.
func TestSnapshotGrowthPerRound(t *testing.T) {
	const rounds, bound = 2000, 24.0
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(string(src), WithNodes(60), WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	sys.Subscribe(func(RoundEvent) {})
	if _, err := sys.Step(100); err != nil {
		t.Fatal(err)
	}
	before := len(snapshotBytes(t, sys))
	if _, err := sys.Step(rounds); err != nil {
		t.Fatal(err)
	}
	after := len(snapshotBytes(t, sys))
	perRound := float64(after-before) / rounds
	t.Logf("snapshot: %d B after 100 rounds, %d B after %d more (%.1f B/round)", before, after, rounds, perRound)
	if perRound > bound {
		t.Fatalf("snapshot grows %.1f B/round, want <= %v", perRound, bound)
	}
}

// FuzzRestore drives System.Restore over arbitrary bytes, seeded with a
// ringpair checkpoint taken after a few rounds and some of its prefixes.
// The invariants:
//
//   - Restore never panics; it either accepts the stream or returns an
//     error.
//   - A truncated checkpoint is corrupt: every strict prefix of the seed
//     checkpoint is rejected.
//   - An accepted stream leaves a state that checkpoints again and whose
//     checkpoint restores.
//
// CI runs a 30s smoke (ci/check-fuzz.sh).
func FuzzRestore(f *testing.F) {
	seed := snapshotBytes(f, tinySystem(f))
	f.Add(seed)
	for _, n := range []int{0, 7, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := fuzzTarget(t)
		err := sys.Restore(bytes.NewReader(data))
		if err == nil && len(data) < len(seed) && bytes.HasPrefix(seed, data) {
			t.Fatalf("a %d-byte prefix of a %d-byte checkpoint restored without error", len(data), len(seed))
		}
		if err != nil {
			return
		}
		again := snapshotBytes(t, sys)
		if err := fuzzTarget(t).Restore(bytes.NewReader(again)); err != nil {
			t.Fatalf("the checkpoint of an accepted stream does not restore: %v", err)
		}
	})
}

// TestTruncatedCheckpointIsCorrupt cuts a checkpoint at every byte: each
// prefix must fail to restore as snap.ErrCorrupt, without a panic, when
// read through a chunked stream and one byte per Read alike.
func TestTruncatedCheckpointIsCorrupt(t *testing.T) {
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *System {
		sys, err := New(string(src), WithNodes(12))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := build()
	if _, err := sys.Step(3); err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, sys)
	for cut := 0; cut < len(data); cut++ {
		for _, r := range []io.Reader{bytes.NewReader(data[:cut]), iotest.OneByteReader(bytes.NewReader(data[:cut]))} {
			if err := build().Restore(r); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("checkpoint cut at %d of %d bytes: err = %v, want snap.ErrCorrupt", cut, len(data), err)
			}
		}
	}
}

// TestFuzzRestoreCorpusCurrent holds the committed FuzzRestore regression
// inputs to the current snapshot header. An input whose magic, format
// version or kind a build no longer reads dies in Reader.Header and tests
// nothing past it, so a format bump must re-stamp the corpus.
func TestFuzzRestoreCorpusCurrent(t *testing.T) {
	fresh := snap.NewReader(bytes.NewReader(snapshotBytes(t, tinySystem(t))))
	fresh.U64() // magic
	fresh.U16() // version
	kind := fresh.String()
	if err := fresh.Err(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob("testdata/fuzz/FuzzRestore/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed FuzzRestore inputs (%v)", err)
	}
	for _, path := range paths {
		data := readFuzzBytes(t, path)
		r := snap.NewReader(bytes.NewReader(data))
		r.Header(kind)
		if err := r.Err(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		t.Logf("%s: %v", filepath.Base(path), fuzzTarget(t).Restore(bytes.NewReader(data)))
	}
}

// readFuzzBytes reads the one []byte value of a "go test fuzz v1" file.
func readFuzzBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(body, "[]byte(")
	if !ok || head != "go test fuzz v1" {
		t.Fatalf("%s: not a one-[]byte fuzz input", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

// fuzzTarget builds a fresh ringpair system to restore into, configured
// like tinySystem's but not stepped.
func fuzzTarget(t *testing.T) *System {
	t.Helper()
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(string(src), WithNodes(60))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
