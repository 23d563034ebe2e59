package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, err := percentile(samples, 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	// p95 of 100 samples has five beyond it: refused.
	if _, err := percentile(samples, 95); err == nil {
		t.Error("p95 of 100 samples accepted with 5 samples beyond it")
	}
	if _, err := percentile(samples[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(samples, 100); err == nil {
		t.Error("p100 accepted")
	}
	if p, _, ok := highestPercentile(samples); !ok || p != 90 {
		t.Errorf("highest percentile of 100 samples = p%v, want p90", p)
	}
}

// TestQuartileSpread pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// scratchDir is a per-test directory under out/, which git ignores: the
// harness keeps everything it writes inside its own directory.
func scratchDir(t *testing.T) string {
	t.Helper()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(outDir, "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "round", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 0, EndNS: 30, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 70, Parent: 0},
		{Name: "b.inner", StartNS: 40, EndNS: 50, Parent: 2},
		{Name: "overlaps b", StartNS: 60, EndNS: 90, Parent: 0}, // 60..70 already counted
		{Name: "past the end", StartNS: 95, EndNS: 120, Parent: 0},
	}
	want := []int64{100 - 30 - 40 - 20 - 5, 30, 30, 10, 30, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTraceNilAndWrite(t *testing.T) {
	var off *Trace
	if off.begin(1, "x", -1) != -1 || off.write(outDir) != nil || len(off.byName("x")) != 0 {
		t.Error("a nil trace must record and write nothing")
	}
	off.end(-1)
	tr := newTrace("unit")
	parent := tr.begin(1, "round", -1)
	tr.timed(1, "seg", parent, func() { time.Sleep(time.Millisecond) })
	tr.end(parent)
	dir := scratchDir(t)
	if err := tr.write(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "trace-unit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var lines []map[string]any
	for {
		var m map[string]any
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 || lines[1]["parent"].(float64) != 0 || lines[1]["name"] != "seg" {
		t.Fatalf("span file: %v", lines)
	}
	round, seg := lines[0], lines[1]
	if round["self_ns"].(float64) != round["end_ns"].(float64)-round["start_ns"].(float64)-(seg["end_ns"].(float64)-seg["start_ns"].(float64)) {
		t.Errorf("round self time is not its duration minus its child's: %v", lines)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	stats := &connStats{}
	c := countingConn{a, stats}
	go func() {
		b.Write([]byte("hello")) // read below in three calls
		buf := make([]byte, 8)
		io.ReadFull(b, buf[:4])
		b.Close()
	}()
	for _, n := range []int{1, 2, 2} {
		if _, err := io.ReadFull(c, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if stats.ThirdReadEnd.IsZero() {
		t.Error("third read not timestamped")
	}
	if _, err := c.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if stats.Reads != 3 || stats.ReadBytes != 5 || stats.Writes != 1 || stats.WriteBytes != 4 {
		t.Errorf("stats = %+v", *stats)
	}
	if stats.ReadWait <= 0 || stats.WriteWait <= 0 {
		t.Errorf("no time recorded inside Read/Write: %+v", *stats)
	}
	c.Close()
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step: same names, units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", names, workloadNames)
	}
	type key struct {
		Name, Unit, Better string
		Bound              float64
	}
	var declared, coded []key
	for _, m := range decl.EndToEnd {
		declared = append(declared, key{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range endToEnd {
		coded = append(coded, key{m.Name, m.Unit, m.Better, m.Bound})
	}
	if len(declared) != len(coded) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, code has %d", len(declared), len(coded))
	}
	for i := range coded {
		if declared[i] != coded[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, declared[i], coded[i])
		}
	}
	declared, coded = nil, nil
	for _, m := range decl.PerLayer {
		declared = append(declared, key{m.Name, m.Unit, m.Better, 0})
	}
	for _, m := range perLayer {
		if !m.Derived {
			coded = append(coded, key{m.Name, m.Unit, m.Better, 0})
		}
	}
	if len(declared) != len(coded) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, code has %d", len(declared), len(coded))
	}
	for i := range coded {
		if declared[i] != coded[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, declared[i], coded[i])
		}
	}
}

// TestSmokeAllWorkloads runs all five workloads and both passes at the
// smoke sizing, then checks that every declared metric was produced by the
// workloads it applies to and that a result set compares clean with itself.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	out := filepath.Join(scratchDir(t), "smoke.json")
	if code := realMain([]string{"-smoke", "-trace", "1", "-out", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20s", d)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var set ResultSet
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, name := range workloadNames {
		u, tr := set.Runs[0][name], set.Traced[name]
		if u == nil || tr == nil {
			t.Fatalf("%s: missing from the result set", name)
		}
		if u.Skipped != "" {
			continue
		}
		for _, d := range endToEnd {
			if v, ok := u.E2E[d.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v); it must never be 0", name, d.Name, v, ok)
			}
		}
		for k := range tr.Layer {
			produced[k] = true
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
	var missing []string
	for _, d := range perLayer {
		if !produced[d.Name] && d.Name != "converge_round" {
			missing = append(missing, d.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per-layer metrics no workload produced: %v", missing)
	}
	if code := realMain([]string{"-compare", out, out}); code != 0 {
		t.Errorf("a result set compared with itself exited %d", code)
	}
}

// TestSingleWorkloadLine checks the driver's contract on one workload: the
// last line of standard output is one JSON object with exactly the four
// keys, every declared metric present, and a seed that changes the inputs.
func TestSingleWorkloadLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = w
		code := realMain([]string{"--workload", wServeJobs, "--seed", "3", "--seconds", "1", "--trace", traced, "-smoke"})
		os.Stdout = stdout
		w.Close()
		data, _ := io.ReadAll(r)
		if code != 0 {
			t.Fatalf("exit code %d", code)
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("result line %q: %v", data, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("result line %s", data)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		want := 0
		for _, d := range defs {
			if d.Derived {
				continue
			}
			want++
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", traced, d.Name, m.Unit)
			}
		}
		if len(line.Metrics) != want {
			t.Errorf("trace %s: %d metrics printed, %d declared", traced, len(line.Metrics), want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "round_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{104, 105, 103, 104, 104}, "same"},
		{[]float64{120, 121, 119, 120, 120}, "worse"},
		{[]float64{80, 81, 79, 80, 80}, "better"},
		{[]float64{70, 130, 100, 125, 75}, "unresolved"},
	}
	for _, c := range cases {
		if got := judge("w", d, steady, c.b).Verdict; got != c.want {
			t.Errorf("B=%v: verdict %q, want %q", c.b, got, c.want)
		}
	}
	// A noisy pair still resolves when every run of B beats every run of A.
	noisyA := []float64{100, 140, 120, 160, 110}
	if got := judge("w", d, noisyA, []float64{50, 60, 55, 70, 65}).Verdict; got != "better" {
		t.Errorf("all-better noisy pair: verdict %q, want better", got)
	}
	higher := metricDef{Name: "node_rounds_per_s", Better: "higher", Bound: 0.10}
	if got := judge("w", higher, steady, []float64{80, 81, 79, 80, 80}).Verdict; got != "worse" {
		t.Errorf("higher-is-better drop: verdict %q, want worse", got)
	}
}
