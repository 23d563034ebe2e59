package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sosf/internal/dsl"
)

// FuzzParseJobSpec drives the POST /jobs body parser over arbitrary bytes.
// The invariants:
//
//   - parseJobSpec never panics; it either accepts the body or returns an
//     error.
//   - The source of every accepted spec settles under dsl.Emit∘Compile:
//     one round trip yields a fixed point, and a spec submitted as a
//     compiled topology already is one. Eviction restores rebuild a job
//     from that source, so it must mean one run.
//
// The seed corpus is testdata/playdemo.sos three ways: raw DSL, a
// {"source": …} spec and a {"topology": …} spec. CI runs a 30s smoke
// (ci/check-fuzz.sh).
func FuzzParseJobSpec(f *testing.F) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "playdemo.sos"))
	if err != nil {
		f.Fatal(err)
	}
	topo, err := dsl.ParseTopology(string(src))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(src)
	for _, js := range []JobSpec{{Source: string(src)}, {Topology: topo}} {
		body, err := json.Marshal(js)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		_, rs, err := parseJobSpec(body)
		if err != nil {
			return
		}
		once := emitCompile(t, rs.Source)
		if twice := emitCompile(t, once); twice != once {
			t.Fatalf("Emit∘Compile does not settle after one round trip:\n%s\nvs\n%s", once, twice)
		}
		var js JobSpec
		if json.Unmarshal(body, &js) == nil && js.Topology != nil && rs.Source != once {
			t.Fatalf("a topology spec's source is not a fixed point of Emit∘Compile:\n%s\nvs\n%s", rs.Source, once)
		}
	})
}

// emitCompile is one DSL round trip: compile src, emit the result.
func emitCompile(t *testing.T, src string) string {
	t.Helper()
	topo, err := dsl.ParseTopology(src)
	if err != nil {
		t.Fatalf("accepted source does not compile: %v\n%s", err, src)
	}
	out, err := dsl.Emit(topo)
	if err != nil {
		t.Fatalf("accepted source has no emitted form: %v\n%s", err, src)
	}
	return out
}
