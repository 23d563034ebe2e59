package main

import (
	"flag"
	"fmt"
	"os"

	"sosf"
	"sosf/internal/dist"
)

// distCmd is the shard-equivalence checker (see internal/dist): it plays
// the file like `sos play`, but with the Plan phase of every round split
// over -shards replicas inside this process, trading planned records over
// in-process pipes at each barrier. Events go to stdout and the final
// report to stderr, byte-identical to `sos play` at any -shards value —
// that identity is the point; the run is slower than play, not faster.
// -snap writes a checkpoint after the run and -resume restores one before
// it, at any shard count on either side of the cut.
func distCmd(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ContinueOnError)
	f := addRunFlags(fs)
	shards := fs.Int("shards", 2, "replicas the Plan phase is split over; each owns one contiguous slot shard")
	resumeFile := fs.String("resume", "", "restore this checkpoint before the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dist: expected exactly one DSL file")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sink, err := eventSink(*f.events)
	if err != nil {
		return err
	}
	sys, err := dist.RunLocal(dist.Config{
		Source: string(src),
		Shards: *shards,
		Seed:   *f.seed, SeedSet: f.explicit("seed"),
		Nodes:  *f.nodes,
		Loss:   *f.loss,
		Churn:  *f.churn,
		Rounds: *f.rounds, RoundsSet: f.explicit("rounds"),
		Threads:    *f.workers,
		Events:     []func(sosf.RoundEvent){sink},
		SnapPath:   *f.snap,
		ResumePath: *resumeFile,
	})
	if err != nil {
		return err
	}
	return printReport(os.Stderr, sys.Report(), *f.json)
}
