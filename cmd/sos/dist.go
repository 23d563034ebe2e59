package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sosf"
	"sosf/internal/dist"
)

// distCmd runs one simulation sharded across processes (see internal/dist).
// Three modes share one flag set:
//
//	sos dist -shards N file.sos                coordinator + N in-process
//	                                           pipe workers (one command,
//	                                           N-way sharded rounds)
//	sos dist -shards N -listen ADDR file.sos   coordinator; waits for N
//	                                           external workers
//	sos dist -connect ADDR [file.sos]          worker; dials the coordinator
//	                                           (retrying, so launch order is
//	                                           free) and receives the source
//	                                           in the handshake — a local
//	                                           file, if given, is only
//	                                           digest-checked against it
//
// An ADDR containing a slash is a Unix socket path, anything else is TCP.
// The coordinator streams round events to stdout and the final report to
// stderr, exactly like `sos play` — and byte-identical to it at any -shards
// value. -snap writes a checkpoint after the run; -resume restores one
// before it (workers receive the blob over the wire, no shared filesystem
// needed).
func distCmd(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ContinueOnError)
	shards := fs.Int("shards", 2, "worker count; each owns one contiguous slot shard")
	listen := fs.String("listen", "", "coordinator: accept workers on this address instead of spawning in-process ones")
	connect := fs.String("connect", "", "worker: dial the coordinator at this address")
	nodes := fs.Int("nodes", 0, "population size (default: the file's nodes option)")
	rounds := fs.Int("rounds", 0, "absolute target round (default: the file's budget, extended to the scenario horizon)")
	seed := fs.Int64("seed", sosf.DefaultSeed, "random seed")
	churn := fs.Float64("churn", 0, "fraction of nodes replaced per round")
	loss := fs.Float64("loss", 0, "probability that an exchange is lost")
	workers := fs.Int("workers", 1, "threads sharding each process's round phases (0 = GOMAXPROCS; output identical for any value)")
	events := fs.String("events", "jsonl", "coordinator event stream format: jsonl or csv")
	snapFile := fs.String("snap", "", "coordinator: write a checkpoint here after the run")
	resumeFile := fs.String("resume", "", "coordinator: restore this checkpoint before the run")
	asJSON := fs.Bool("json", false, "machine-readable final report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *connect != "" {
		if *listen != "" {
			return fmt.Errorf("dist: -connect and -listen are different roles; pick one")
		}
		if fs.NArg() > 1 {
			return fmt.Errorf("dist: worker mode takes at most one DSL file (for the digest check)")
		}
		localSrc := ""
		if fs.NArg() == 1 {
			b, err := os.ReadFile(fs.Arg(0))
			if err != nil {
				return err
			}
			localSrc = string(b)
		}
		conn, err := dist.DialRetry(dist.ChooseTransport(*connect), *connect, 15*time.Second)
		if err != nil {
			return err
		}
		return dist.RunWorker(conn, *workers, localSrc)
	}

	if fs.NArg() != 1 {
		return fmt.Errorf("dist: expected exactly one DSL file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sink, err := eventSink(*events)
	if err != nil {
		return err
	}
	cfg := dist.Config{
		Source: string(src),
		Shards: *shards,
		Seed:   *seed, SeedSet: explicit["seed"],
		Nodes:  *nodes,
		Loss:   *loss,
		Churn:  *churn,
		Rounds: *rounds, RoundsSet: explicit["rounds"],
		Threads:    *workers,
		Events:     []func(sosf.RoundEvent){sink},
		SnapPath:   *snapFile,
		ResumePath: *resumeFile,
	}

	var sys *sosf.System
	if *listen == "" {
		sys, err = dist.RunLocal(cfg)
		if err != nil {
			return err
		}
	} else {
		c, err := dist.NewCoordinator(cfg)
		if err != nil {
			return err
		}
		t := dist.ChooseTransport(*listen)
		ln, err := t.Listen(*listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "dist: listening on %s %s for %d worker(s)\n", t.Name(), ln.Addr(), *shards)
		conns := make([]dist.Conn, *shards)
		for i := range conns {
			if conns[i], err = ln.Accept(); err != nil {
				return err
			}
		}
		if err := c.Run(conns); err != nil {
			return err
		}
		sys = c.System()
	}
	return printReport(os.Stderr, sys.Report(), *asJSON)
}
