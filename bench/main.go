// Command bench is the repository's benchmark: five workloads over the
// public surfaces of sos play, the worker pool, sos dist and sos serve,
// with end-to-end metrics from an untraced pass and per-layer metrics from
// a traced one. See README.md beside this file.
//
//	bash bench/run.sh                      # all workloads, untraced
//	bash bench/run.sh -trace 1             # all workloads, both passes
//	bash bench/run.sh -workload dist_2shard -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare out/a.json out/b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sosf"
)

// outDir holds span files, result sets and the serve job directories. The
// harness runs from bench/ (run.sh and `go test` both see to that).
const outDir = "out"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print the driver's result line (default: all)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and of the simulations")
	seconds := fs.Int("seconds", 10, "measured time per workload the op counts are sized for")
	trace := fs.Int("trace", 0, "1 = traced pass (per-layer metrics, span files); in all-workload mode both passes run")
	smoke := fs.Bool("smoke", false, "tiny sizing that only exercises the code paths")
	runs := fs.Int("runs", 1, "all-workload mode: repeat the untraced pass this often into one result set")
	out := fs.String("out", filepath.Join(outDir, "results.json"), "all-workload mode: where the result set is written")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	sz := fullSizing(*seconds)
	if *smoke {
		sz = smokeSizing
	}
	if *workload != "" {
		return runSingle(*workload, *seed, sz, *trace == 1)
	}
	return runAll(*seed, sz, *trace == 1, *runs, *out)
}

// runWorkload runs one workload in one pass. single selects the
// self-contained output checks (a twin or a serial replay inside the run);
// the all-workload mode compares hashes across workloads instead.
func runWorkload(name string, in Inputs, sz Sizing, traced, single bool) *Result {
	var tr *Trace
	if traced {
		tr = newTrace(name)
	}
	var res *Result
	switch name {
	case wSteadySerial, wSteadyWorkers:
		if name == wSteadyWorkers && !hasPool() {
			return &Result{Workload: name, Traced: traced,
				Skipped: "1 CPU: a worker pool has nothing to run on, and flat numbers would read as no speed-up"}
		}
		res = steadyRun(name, in, sz, single, traced).run(tr)
		if traced && name == wSteadySerial {
			probeView(res.Layer)
		}
	case wFaultsPlay:
		res = faultsRun(in, sz, single).run(tr)
	case wDist2Shard:
		res = distRun{src: in.Faults, seed: in.Seed, rounds: sz.FaultRounds, setups: sz.Setups, reference: single}.run(tr)
	case wServeJobs:
		res = serveRun{spec: in.ServeSpec, src: in.ServeSource, seed: in.Seed, jobs: sz.ServeJobs,
			nodes: sz.ServeNodes, rounds: sz.ServeRounds, setups: sz.Setups, dir: filepath.Join(outDir, "tmp")}.run(tr)
	default:
		return nil
	}
	if err := tr.write(outDir); err != nil {
		res.missed("writing spans: %v", err)
		res.finish()
	}
	return res
}

// checkGolden plays testdata/playdemo.sos through the code path the
// workload uses and compares the stream with the frozen fixture, byte for
// byte — the repository's determinism contract, checked before any timing.
func checkGolden(workload string) error {
	src, err := os.ReadFile(filepath.Join("..", "testdata", "playdemo.sos"))
	if err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join("..", "testdata", "golden", "playdemo.events.jsonl"))
	if err != nil {
		return err
	}
	var got []byte
	switch workload {
	case wDist2Shard:
		got, err = goldenDist(string(src))
	case wServeJobs:
		got, err = goldenServe(src, want)
	default:
		workers := 1
		if workload == wSteadyWorkers {
			workers = poolWorkers()
		}
		got, err = goldenPlay(string(src), workers)
	}
	if err != nil {
		return fmt.Errorf("golden fixture through %s: %w", workload, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("golden fixture through %s: stream differs from testdata/golden/playdemo.events.jsonl", workload)
	}
	return nil
}

// goldenPlay is `sos play -events jsonl testdata/playdemo.sos` in process.
func goldenPlay(src string, workers int) ([]byte, error) {
	sys, err := sosf.New(src, sosf.WithWorkers(workers), sosf.WithRunToEnd())
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	sys.Subscribe(sosf.JSONLSink(&out))
	err = stepRounds(sys, max(sosf.DefaultRounds, sys.ScenarioHorizon()))
	return out.Bytes(), err
}

// goldenServe submits the source as a job; oneJob compares the stream.
func goldenServe(src, want []byte) ([]byte, error) {
	tb, err := bootServer(filepath.Join(outDir, "tmp"))
	if err != nil {
		return nil, err
	}
	defer tb.close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if _, err := tb.oneJob(client, src, want, 0, nil); err != nil {
		return nil, err
	}
	return want, nil
}

// runSingle is the driver's entry: one workload, one pass, and as the last
// line of standard output one JSON object with correct, attempted, failed
// and metrics.
func runSingle(name string, seed int64, sz Sizing, traced bool) int {
	res := runWorkload(name, Generate(seed, sz), sz, traced, true)
	if res == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames, ", "))
		return 2
	}
	if res.Skipped == "" {
		if err := checkGolden(name); err != nil {
			res.missed("%v", err)
			res.finish()
		}
	}
	printResult(os.Stderr, res)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if d.Derived {
			continue
		}
		// A per-layer metric that does not apply to this workload (dist.*
		// outside dist_2shard, say) reads 0: the driver wants every name
		// from every workload.
		v, ok := res.Layer[d.Name]
		if !ok {
			v = res.E2E[d.Name]
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Skipped == "" && len(res.Checks) == 0 && res.Failed == 0,
		"attempted": max(res.Ops, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// ResultSet is what the all-workload mode stores and -compare reads.
type ResultSet struct {
	Context map[string]any `json:"context"`
	// Runs holds one map of workload → result per untraced pass.
	Runs []map[string]*Result `json:"runs"`
	// Traced is the traced pass, when one ran.
	Traced map[string]*Result `json:"traced,omitempty"`
}

// runAll runs every workload, checks outputs across workloads and passes,
// prints every metric by name and stores the result set.
func runAll(seed int64, sz Sizing, traced bool, runs int, out string) int {
	set := ResultSet{Context: hostContext(seed, sz)}
	golden := map[string]error{}
	for _, name := range workloadNames {
		if name != wSteadyWorkers || hasPool() {
			golden[name] = checkGolden(name)
		}
	}
	in := Generate(seed, sz)
	pass := func(traced bool) map[string]*Result {
		results := map[string]*Result{}
		for _, name := range workloadNames {
			res := runWorkload(name, in, sz, traced, false)
			if golden[name] != nil {
				res.missed("%v", golden[name])
			}
			results[name] = res
		}
		sameStream(results[wSteadySerial], results[wSteadyWorkers])
		sameStream(results[wFaultsPlay], results[wDist2Shard])
		if traced {
			for name, res := range results {
				sameStream(res, set.Runs[0][name])
			}
		}
		for _, name := range workloadNames {
			results[name].finish()
			printResult(os.Stdout, results[name])
		}
		return results
	}
	for i := 0; i < max(runs, 1); i++ {
		set.Runs = append(set.Runs, pass(false))
	}
	if traced {
		set.Traced = pass(true)
		derive(set.Runs[len(set.Runs)-1], set.Traced)
		printDerived(set.Traced)
	}
	if err := writeJSON(out, set); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("result set written to %s\n", out)
	failed, printed := false, map[string]bool{}
	for _, results := range append(set.Runs, set.Traced) {
		for _, name := range workloadNames {
			if res := results[name]; res != nil {
				for _, c := range res.Checks {
					if !printed[c] {
						fmt.Fprintf(os.Stderr, "bench: OUTPUT CHECK FAILED: %s\n", c)
						printed[c] = true
					}
				}
				failed = failed || res.Failed > 0
			}
		}
	}
	if failed {
		return 1
	}
	fmt.Println("output checks: all passed")
	return 0
}

// sameStream fails both results when their event streams differ: workloads
// that run the same source, and the two passes of one workload, must emit
// the same bytes.
func sameStream(a, b *Result) {
	ha, hb := a.Hash, b.Hash
	if n := min(len(a.LapHashes), len(b.LapHashes)); n > 0 {
		ha, hb = a.LapHashes[n-1], b.LapHashes[n-1]
	}
	if a.Skipped != "" || b.Skipped != "" || ha == hb {
		return
	}
	for _, r := range []*Result{a, b} {
		r.missed("%s (traced=%v) and %s (traced=%v) streams differ: %.12s… vs %.12s…",
			a.Workload, a.Traced, b.Workload, b.Traced, ha, hb)
	}
}

// derive computes the metrics that relate two workloads or two passes.
func derive(untraced, traced map[string]*Result) {
	// dist_2shard and serve_jobs cannot alternate traced and untraced
	// rounds inside one run, so their tracing overhead is read off the two
	// passes (and carries the machine's drift between them).
	for _, name := range []string{wDist2Shard, wServeJobs} {
		if u := untraced[name].E2E["round_ms_p50"]; u > 0 {
			traced[name].Layer["trace.overhead_pct"] = 100 * (traced[name].E2E["round_ms_p50"]/u - 1)
		}
	}
	if f := untraced[wFaultsPlay].E2E["round_ms_p50"]; f > 0 {
		traced[wDist2Shard].Layer["dist.slowdown_x"] = untraced[wDist2Shard].E2E["round_ms_p50"] / f
	}
	s, w := untraced[wSteadySerial], untraced[wSteadyWorkers]
	if w.Skipped == "" && w.E2E["round_ms_p50"] > 0 {
		traced[wSteadyWorkers].Layer["sim.worker_efficiency"] =
			s.E2E["round_ms_p50"] / (float64(poolWorkers()) * w.E2E["round_ms_p50"])
	}
}

func hostContext(seed int64, sz Sizing) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"seed": seed, "sizing": sz, "nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpu, "pool_workers": poolWorkers(),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
