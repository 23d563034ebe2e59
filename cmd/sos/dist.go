package main

import (
	"flag"
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
	f := addRunFlags(flag.NewFlagSet("dist", flag.ContinueOnError))
	shards := f.fs.Int("shards", 2, "replicas the Plan phase is split over; each owns one contiguous slot shard")
	resumeFile := f.fs.String("resume", "", "restore this checkpoint before the run")
	if err := f.parse(args); err != nil {
		return err
	}
	sink, err := eventSink(f.events)
	if err != nil {
		return err
	}
	cfg := dist.Config{
		Source:     f.spec.Source,
		Shards:     *shards,
		Nodes:      f.spec.Nodes,
		Loss:       f.spec.Loss,
		Churn:      f.spec.Churn,
		Threads:    f.spec.Workers,
		Events:     []func(sosf.RoundEvent){sink},
		SnapPath:   f.snap,
		ResumePath: *resumeFile,
	}
	if f.spec.Seed != nil {
		cfg.Seed, cfg.SeedSet = *f.spec.Seed, true
	}
	if f.spec.Rounds != nil {
		cfg.Rounds, cfg.RoundsSet = *f.spec.Rounds, true
	}
	sys, err := dist.RunLocal(cfg)
	if err != nil {
		return err
	}
	return printReport(os.Stderr, sys.Report(), f.json)
}
