// Command sosbench regenerates every table and figure of the paper's
// evaluation (plus the extension experiments listed in the README section
// "Regenerating the paper's evaluation").
//
// Usage:
//
//	sosbench -all                       run everything
//	sosbench -fig2 -fig3 -fig4          the paper's three figures
//	sosbench -gallery -curves -reconfig the paper's experiments (i)-(iii)
//	sosbench -churn -catastrophe        robustness extensions
//	sosbench -ablations                 design-choice ablations
//
// Common flags:
//
//	-full        paper-scale runs (25 600 nodes, 25 repetitions; slow)
//	-runs N      repetitions per data point (default 5; 25 with -full)
//	-seed N      base random seed (default 1; 0 is a seed too)
//	-parallel N  worker goroutines fanning independent runs
//	             (default GOMAXPROCS; 1 = sequential; output is
//	             byte-identical either way)
//	-workers N   shard each simulation round across N workers
//	             (default 1 = serial; 0 = GOMAXPROCS; negative refused).
//	             Per-node RNG streams keep every figure and table
//	             byte-identical for any value; use it to speed up single
//	             large runs
//	-out DIR     also write <id>.dat, <id>.svg and <id>.txt files
//
// Profiling:
//
//	-cpuprofile FILE  write a pprof CPU profile covering every driver
//	-memprofile FILE  write a pprof heap profile at exit
//
// sosbench reproduces figures; performance numbers are produced, compared
// and gated by the repository benchmark instead (`bash bench/run.sh`, see
// bench/README.md and ci/check-bench.sh).
//
// Each experiment prints an aligned table and an ASCII chart on stdout,
// and its wall-clock time on stderr; with -out it also writes
// gnuplot-ready .dat files and standalone .svg charts. A final summary line
// on stderr reports the total wall clock and the parallelism used, so
// stdout depends only on the flags and the seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"sosf/internal/eval"
	"sosf/internal/plot"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		os.Exit(1)
	}
}

func run() error {
	all := flag.Bool("all", false, "run every experiment")
	// selected maps each eval.Driver group to the flag that selects it.
	selected := map[string]*bool{
		"fig2":        flag.Bool("fig2", false, "Figure 2: convergence vs. nodes"),
		"fig3":        flag.Bool("fig3", false, "Figure 3: convergence vs. components"),
		"fig4":        flag.Bool("fig4", false, "Figure 4: bandwidth baseline vs. overhead"),
		"gallery":     flag.Bool("gallery", false, "experiment (i): topology gallery"),
		"curves":      flag.Bool("curves", false, "experiment (ii): accuracy over time"),
		"reconfig":    flag.Bool("reconfig", false, "experiment (iii): live reconfiguration"),
		"churn":       flag.Bool("churn", false, "extension: continuous churn"),
		"catastrophe": flag.Bool("catastrophe", false, "extension: catastrophic failures"),
		"ablations":   flag.Bool("ablations", false, "design-choice ablations"),
		"baseline":    flag.Bool("baseline", false, "composed runtime vs. monolithic overlay"),
	}
	full := flag.Bool("full", false, "paper-scale runs (slow)")
	runs := flag.Int("runs", 0, "repetitions per data point")
	seed := flag.Int64("seed", 1, "base random seed")
	parallel := flag.Int("parallel", 0,
		"worker goroutines fanning independent runs (0 = GOMAXPROCS, 1 = sequential)")
	roundWorkers := flag.Int("workers", 1,
		"workers sharding each simulation round (0 = GOMAXPROCS; output identical for any value)")
	out := flag.String("out", "", "directory for .dat/.svg/.txt outputs")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sosbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sosbench: memprofile:", err)
			}
		}()
	}

	rw, err := workerCount(*roundWorkers)
	if err != nil {
		return err
	}
	o := eval.Options{
		Runs:         *runs,
		Seed:         *seed,
		Full:         *full,
		Parallelism:  *parallel,
		RoundWorkers: rw,
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := &writer{out: os.Stdout, dir: *out}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	any := false
	start := time.Now()
	for _, d := range eval.Drivers {
		if !*all && !*selected[d.Group] {
			continue
		}
		any = true
		t0 := time.Now()
		res, err := d.Run(o)
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		if err := w.result(res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%s: %v]\n", d.ID, elapsed.Round(time.Millisecond))
		fmt.Println()
	}
	if !any {
		flag.Usage()
		return fmt.Errorf("no experiment selected (try -all)")
	}
	fmt.Fprintf(os.Stderr, "total wall-clock %v (parallelism %d)\n",
		time.Since(start).Round(time.Millisecond), workers)
	return nil
}

// workerCount turns the -workers flag into eval.Options.RoundWorkers' rule
// (0 serial, negative GOMAXPROCS): the flag's documented 0 = GOMAXPROCS
// becomes -1, and a negative flag value is refused.
func workerCount(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-workers must be >= 0, got %d", n)
	}
	if n == 0 {
		return -1, nil
	}
	return n, nil
}

// writer renders results to out and, optionally, to files in dir.
type writer struct {
	out io.Writer
	dir string
}

// result renders every figure, then every table, of one driver's result.
func (w *writer) result(res *eval.Result) error {
	for _, fig := range res.Figures {
		if err := w.figure(fig); err != nil {
			return err
		}
	}
	for _, tbl := range res.Tables {
		if err := w.table(tbl); err != nil {
			return err
		}
	}
	return nil
}

func (w *writer) figure(f *eval.Figure) error {
	fmt.Fprintf(w.out, "== %s ==\n", f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w.out, "   (%s)\n", n)
	}
	fmt.Fprintln(w.out)
	fmt.Fprint(w.out, f.Table().String())
	fmt.Fprintln(w.out)
	fmt.Fprint(w.out, plot.ASCII(f.Title, f.XLabel, f.LogX, f.Series...))
	fmt.Fprintln(w.out)
	if w.dir == "" {
		return nil
	}
	dat := plot.DAT(f.XLabel, f.Series...)
	if err := os.WriteFile(filepath.Join(w.dir, f.ID+".dat"), []byte(dat), 0o644); err != nil {
		return err
	}
	svg := plot.SVG(f.Title, f.XLabel, f.YLabel, f.LogX, f.Series...)
	return os.WriteFile(filepath.Join(w.dir, f.ID+".svg"), []byte(svg), 0o644)
}

func (w *writer) table(t *eval.TableResult) error {
	fmt.Fprintf(w.out, "== %s ==\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(w.out, "   (%s)\n", n)
	}
	fmt.Fprintln(w.out)
	fmt.Fprint(w.out, t.Table.String())
	fmt.Fprintln(w.out)
	if w.dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(w.dir, t.ID+".txt"), []byte(t.Table.String()), 0o644)
}
