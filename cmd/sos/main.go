// Command sos runs, validates, plays, checkpoints, or renders a topology
// described in the framework's DSL.
//
// Usage:
//
//	sos check file.sos             validate the DSL file
//	sos run [flags] file.sos       simulate and report convergence
//	sos play [flags] file.sos      simulate to the end of the file's
//	                               scenario timeline, streaming one round
//	                               event per round to stdout
//	sos snapshot [flags] file.sos  simulate exactly -rounds rounds,
//	                               streaming events like play, then write a
//	                               checkpoint of the complete run state to
//	                               -snap
//	sos resume [flags] file.sos    restore the run state from -snap and
//	                               continue to round -rounds (absolute),
//	                               streaming events like play — the
//	                               concatenated snapshot+resume streams are
//	                               byte-identical to one uninterrupted run,
//	                               at any -workers value on either side
//	sos dot [flags] file.sos       simulate, then emit the realized
//	                               topology as Graphviz DOT on stdout
//	sos serve [flags]              run the multi-tenant job service: submit
//	                               .sos files or JSON specs over HTTP, run
//	                               many simulations concurrently, stream
//	                               round events over SSE, and scrape
//	                               /metrics (see internal/serve)
//	sos dist [flags] file.sos      check shard equivalence: play the file
//	                               with the Plan phase of every round split
//	                               over -shards replicas in this process
//	                               (in-process pipes, one barrier per
//	                               protocol per round); the event stream and
//	                               -snap checkpoint are byte-identical to
//	                               `sos play` at any shard count, and the
//	                               run is slower than play, not faster.
//	                               Takes the run flags below plus -shards N
//	                               and -resume FILE
//	sos fuzz [flags]               run a deterministic generative campaign:
//	                               sample randomized fault timelines over a
//	                               seed × topology × population matrix,
//	                               check invariants (reconvergence, orphan
//	                               tail, bandwidth, resume equivalence), and
//	                               shrink every violation to a minimal .sos
//	                               reproducer; exits non-zero on findings
//
// Every -workers N below follows one rule (default 1): 1 runs serially, 0
// selects GOMAXPROCS, N > 1 pins N workers, and a negative N is refused.
//
// Flags for serve (it takes no file argument):
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8080)
//	-dir DIR         event spools and eviction checkpoints (default
//	                 sos-serve-data)
//	-max-resident N  memory budget: evict least-recently-used paused jobs
//	                 to snapshots beyond N resident jobs (default 0 = off)
//	-workers N       round-sharding for jobs that don't set their own
//	                 (output identical for any value)
//
// Flags for fuzz (it takes no file argument; -runs, -horizon, -within and
// -bandwidth must be positive):
//
//	-seed N        campaign master seed (default 1); the same seed always
//	               reproduces the same runs and the same reproducer bytes
//	-runs N        number of generated runs (default 8)
//	-horizon N     last round a sampled fault may touch (default 60)
//	-within N      rounds the system gets to re-converge after the last
//	               fault (default 40)
//	-bandwidth B   per-node per-round byte ceiling (default 12288)
//	-pop-floor F   require the population to stay above F (0 ≤ F < 1) of
//	               its initial size — deliberately strict, for seeding
//	               failures
//	-no-repair     sample kill blasts without replacement joins or the
//	               trailing rebalance (these timelines must reconverge on
//	               the runtime's self-healing alone)
//	-corpus DIR    write each finding as a NAME.in/NAME.out reproducer
//	               pair under DIR (see testdata/corpus)
//	-workers N     shard each simulated round (results identical)
//
// Flags for run, play, snapshot, resume, and dot (dist takes all but
// -to-end; it always plays to the end):
//
//	-nodes N       population size (default: the file's `nodes` option)
//	-workers N     shard each simulation round across N workers. Output is
//	               byte-identical for every worker count — workers only
//	               change the wall clock
//	-rounds N      maximum rounds to simulate (default 150; play and dist
//	               extend this to the scenario horizon; for resume and
//	               dist it is the absolute target round, counted from 0)
//	-seed N        random seed (default 1)
//	-churn F       replace F of the population per round (e.g. 0.01)
//	-loss F        drop each exchange with probability F
//	-to-end        keep running after convergence (play always does)
//	-snap FILE     (snapshot, resume) checkpoint file to write / read;
//	               (dist) checkpoint to write after the run
//	-json          (run, play, snapshot, resume, dist) print the final report as
//	               JSON with stable field names; where an event stream owns
//	               stdout it goes to stderr
//	-events FORMAT (play, snapshot, resume, dist) event stream format:
//	               jsonl (default) or csv
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sosf"
	"sosf/internal/campaign"
	"sosf/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sos:", err)
		os.Exit(1)
	}
}

// commands is the one list both the usage line and the unknown-command
// error print.
const commands = "check|run|play|snapshot|resume|dot|serve|dist|fuzz"

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sos <%s> [flags] [file.sos]", commands)
	}
	cmd, rest := args[0], args[1:]
	if cmd == "fuzz" {
		// fuzz has its own flag set and takes no DSL file.
		return fuzz(rest)
	}
	if cmd == "serve" {
		// serve has its own flag set and takes no DSL file either.
		return serveCmd(rest)
	}
	if cmd == "dist" {
		// dist adds -shards and -resume to the run flags and always plays to
		// the end.
		return distCmd(rest)
	}

	f := addRunFlags(flag.NewFlagSet(cmd, flag.ContinueOnError))
	toEnd := f.fs.Bool("to-end", false, "keep running after convergence")
	if err := f.parse(rest); err != nil {
		return err
	}
	var extra []sosf.Option
	if *toEnd {
		extra = append(extra, sosf.WithRunToEnd())
	}

	switch cmd {
	case "check":
		if err := sosf.Validate(f.spec.Source); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "run":
		rep, err := sosf.Run(f.spec.Source, f.spec.Options(extra...)...)
		if err != nil {
			return err
		}
		return printReport(os.Stdout, rep, f.json)
	case "play":
		return play(f, "", "", true)
	case "snapshot", "resume":
		if f.snap == "" {
			return fmt.Errorf("%s: -snap FILE is required", cmd)
		}
		if cmd == "snapshot" {
			return play(f, "", f.snap, false)
		}
		return play(f, f.snap, "", true)
	case "dot":
		sys, err := sosf.New(f.spec.Source, f.spec.Options(extra...)...)
		if err != nil {
			return err
		}
		if _, err := sys.Step(sys.RoundBudget()); err != nil {
			return err
		}
		fmt.Print(sys.DOT())
		return nil
	default:
		return fmt.Errorf("unknown command %q (want one of %s)", cmd, commands)
	}
}

// runFlags are the flags every simulating command takes, parsed into one
// sosf.RunSpec; `sos dist` adds its own two on top of the same set.
type runFlags struct {
	fs              *flag.FlagSet
	spec            sosf.RunSpec
	rounds, workers int
	seed            int64
	events, snap    string
	json            bool
}

func addRunFlags(fs *flag.FlagSet) *runFlags {
	f := &runFlags{fs: fs}
	fs.IntVar(&f.spec.Nodes, "nodes", 0, "population size (default: the file's nodes option)")
	fs.IntVar(&f.rounds, "rounds", sosf.DefaultRounds, "maximum rounds to simulate (resume, dist: the absolute target round)")
	fs.Int64Var(&f.seed, "seed", sosf.DefaultSeed, "random seed")
	fs.Float64Var(&f.spec.Churn, "churn", 0, "fraction of nodes replaced per round")
	fs.Float64Var(&f.spec.Loss, "loss", 0, "probability that an exchange is lost")
	fs.IntVar(&f.workers, "workers", 1, "workers sharding each round (0 = GOMAXPROCS; output identical for any value)")
	fs.BoolVar(&f.json, "json", false, "machine-readable final report (run, play, snapshot, resume, dist)")
	fs.StringVar(&f.events, "events", "jsonl", "play/snapshot/resume/dist: event stream format, jsonl or csv")
	fs.StringVar(&f.snap, "snap", "", "snapshot/resume: checkpoint file to write/read; dist: write one after the run")
	return f
}

// parse parses args, which must name exactly one DSL file, into the spec.
// -rounds and -seed are only forwarded when the user typed them: left
// alone, the file's own `option rounds` / `option seed` apply (and the
// usual defaults after that), so a self-contained .sos reproducer replays
// its exact run with no flags at all.
func (f *runFlags) parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.NArg() != 1 {
		return fmt.Errorf("%s: expected exactly one DSL file", f.fs.Name())
	}
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "rounds":
			f.spec.Rounds = &f.rounds
		case "seed":
			f.spec.Seed = &f.seed
		}
	})
	workers, err := workerCount(f.workers)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(f.fs.Arg(0))
	f.spec.Source, f.spec.Workers = string(src), workers
	return err
}

// workerCount turns a -workers flag into the library's worker rule (0 or 1
// serial, negative GOMAXPROCS): the flag's documented 0 = GOMAXPROCS
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

// serveCmd runs the HTTP job service until SIGINT, then drains: in-flight
// requests finish, every running job parks at its next round boundary, and
// spools and checkpoints stay on disk in -dir.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dir := fs.String("dir", "sos-serve-data", "directory for event spools and eviction checkpoints")
	maxResident := fs.Int("max-resident", 0, "evict LRU paused jobs to snapshots beyond this many resident jobs (0 = off)")
	workers := fs.Int("workers", 1, "default round-sharding for jobs that don't set their own (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected argument %q (submit topologies over HTTP)", fs.Arg(0))
	}
	defWorkers, err := workerCount(*workers)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv, err := serve.NewServer(serve.Config{
		Dir:            *dir,
		MaxResident:    *maxResident,
		DefaultWorkers: defWorkers,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("serve: listening on http://%s (data in %s)", ln.Addr(), *dir)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second ^C kills us the default way
	logger.Printf("serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Close()
	return nil
}

// fuzz runs a generative campaign and reports every minimized finding:
// the violation and reproducer source on stdout, progress on stderr, and
// optionally a committed-corpus pair per finding. Any finding makes the
// command fail, so a CI step can gate on a clean campaign.
func fuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign master seed")
	runs := fs.Int("runs", 8, "number of generated runs")
	horizon := fs.Int("horizon", 60, "last round a sampled fault may touch")
	within := fs.Int("within", 40, "reconvergence budget after the last fault")
	bandwidth := fs.Float64("bandwidth", 12288, "per-node per-round byte ceiling")
	popFloor := fs.Float64("pop-floor", 0, "population floor as a fraction of the initial size (0 = off; strict values seed failures)")
	noRepair := fs.Bool("no-repair", false, "sample kills without replacement joins or the trailing rebalance")
	corpusDir := fs.String("corpus", "", "write each finding as a NAME.in/NAME.out pair under this directory")
	workers := fs.Int("workers", 1, "workers sharding each round (0 = GOMAXPROCS; results identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz: unexpected argument %q (the campaign generates its own topologies)", fs.Arg(0))
	}
	// campaign.Config reads 0 as "default"; on the command line a
	// non-positive budget is a mistake, not a request for the default.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"runs", float64(*runs)},
		{"horizon", float64(*horizon)},
		{"within", float64(*within)},
		{"bandwidth", *bandwidth},
	} {
		if !(f.v > 0) { // also refuses NaN
			return fmt.Errorf("fuzz: -%s must be > 0, got %v", f.name, f.v)
		}
	}
	if !(*popFloor >= 0 && *popFloor < 1) {
		return fmt.Errorf("fuzz: -pop-floor must be in [0, 1), got %v", *popFloor)
	}
	roundWorkers, err := workerCount(*workers)
	if err != nil {
		return err
	}
	findings, err := campaign.New(campaign.Config{
		Seed:             *seed,
		Runs:             *runs,
		Horizon:          *horizon,
		ReconvergeWithin: *within,
		BandwidthCeiling: *bandwidth,
		PopulationFloor:  *popFloor,
		NoRepair:         *noRepair,
		Workers:          roundWorkers,
		Log:              os.Stderr,
	}).Run()
	if err != nil {
		return err
	}
	for i, f := range findings {
		fmt.Printf("finding %d: %s\nminimal reproducer (%d shrink steps, %d candidate runs):\n%s",
			i+1, f.Violation, f.ShrinkSteps, f.CandidateRuns, f.Source)
		if *corpusDir != "" {
			in, out, err := f.Write(*corpusDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s and %s\n", in, out)
		}
	}
	if len(findings) > 0 {
		return fmt.Errorf("fuzz: %d invariant violation(s) in %d runs (campaign seed %d)", len(findings), *runs, *seed)
	}
	fmt.Printf("ok: %d runs, 0 violations (campaign seed %d)\n", *runs, *seed)
	return nil
}

// eventSink returns the chosen event sink over stdout.
func eventSink(format string) (func(sosf.RoundEvent), error) {
	switch format {
	case "jsonl":
		return sosf.JSONLSink(os.Stdout), nil
	case "csv":
		return sosf.CSVSink(os.Stdout), nil
	default:
		return nil, fmt.Errorf("unknown -events format %q (want jsonl or csv)", format)
	}
}

// play is the one path behind play, snapshot and resume: build the system
// (restoring the checkpoint restoreFrom if set), stream one round event per
// round to stdout, step to the target round, write the checkpoint writeTo if
// set, and print the final report to stderr. The run never stops at
// convergence — a timeline only makes sense played to the end. The target
// is the absolute round budget; toHorizon extends it to the scenario horizon
// so the last scheduled action always fires, which `snapshot` declines
// because its checkpoint must land on the round asked for. Splitting one run
// with snapshot + resume is invisible: the two streams concatenated are
// byte-identical to an uninterrupted play of the same file. A SIGINT is
// caught at the next round boundary and turned into a final
// interrupted.sosnap checkpoint.
func play(f *runFlags, restoreFrom, writeTo string, toHorizon bool) error {
	sink, err := eventSink(f.events)
	if err != nil {
		return err
	}
	opts := []sosf.Option{sosf.WithRunToEnd()}
	if restoreFrom != "" {
		opts = append(opts, sosf.WithRestoreFrom(restoreFrom))
	}
	sys, err := sosf.New(f.spec.Source, f.spec.Options(opts...)...)
	if err != nil {
		return err
	}
	sys.Subscribe(sink)
	target := sys.RoundBudget()
	if toHorizon {
		target = sys.PlayHorizon()
	}
	if target < sys.Round() {
		return fmt.Errorf("resume: checkpoint is at round %d, past the -rounds %d target", sys.Round(), target)
	}
	if err := stepInterruptible(sys, target-sys.Round()); err != nil {
		return err
	}
	if writeTo != "" {
		if err := sys.WriteSnapshot(writeTo); err != nil {
			return err
		}
	}
	return printReport(os.Stderr, sys.Report(), f.json)
}

// interruptSnapshot is where a SIGINT-interrupted play/resume saves its
// final round-boundary checkpoint; `sos resume -snap interrupted.sosnap`
// picks the run back up from it.
const interruptSnapshot = "interrupted.sosnap"

// stepInterruptible steps the system n more rounds, catching SIGINT: the
// engine stops at the next round boundary (never mid-round) and the
// complete run state is checkpointed to interrupted.sosnap instead of the
// process dying with the progress lost.
func stepInterruptible(sys *sosf.System, n int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, err := sys.StepContext(ctx, n)
	if errors.Is(err, context.Canceled) {
		stop() // restore default SIGINT behavior: a second ^C kills us
		if werr := sys.WriteSnapshot(interruptSnapshot); werr != nil {
			return fmt.Errorf("interrupted at round %d; saving %s failed: %w",
				sys.Round(), interruptSnapshot, werr)
		}
		return fmt.Errorf("interrupted at round %d; state saved to %s (continue with `sos resume -snap %s`)",
			sys.Round(), interruptSnapshot, interruptSnapshot)
	}
	return err
}

func printReport(w *os.File, rep *sosf.Report, asJSON bool) error {
	if !asJSON {
		fmt.Fprint(w, rep)
		return nil
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}
