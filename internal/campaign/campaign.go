package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"sosf"
	"sosf/internal/dsl"
	"sosf/internal/spec"
)

// Config parameterizes a campaign. The zero value of every field selects a
// default sized for a CI smoke run; see New.
type Config struct {
	// Seed is the campaign master seed. Every run seed, every sampled
	// timeline, and every shrinking decision derives from it, so one
	// campaign seed reproduces the whole campaign — including the exact
	// bytes of any emitted reproducer.
	Seed int64
	// Runs is the number of generated runs (default 8). Run i uses base
	// topology i mod len(topologies) and population (i / len(topologies))
	// mod len(populations), cycling through the matrix.
	Runs int
	// Horizon is the last round a sampled fault may touch (default 60).
	Horizon int
	// ReconvergeWithin is the Reconverge invariant's budget: every run
	// must reach full convergence within this many rounds of its last
	// fault (default 40). Each run simulates Horizon + ReconvergeWithin
	// rounds.
	ReconvergeWithin int
	// BandwidthCeiling is the BandwidthCeiling invariant's limit in bytes
	// per node per round (default 12288 — flash-join and rebalance rounds
	// legitimately spike to ~7.3 KB/node at the campaign's populations;
	// steady-state rounds stay under 2 KB/node).
	BandwidthCeiling float64
	// PopulationFloor, when positive, adds the PopulationFloor invariant:
	// no round's population may drop below this fraction of the initial
	// population. It is deliberately strict — ordinary kill blasts trip
	// it — and exists to exercise the shrinker and seed the regression
	// corpus (default off).
	PopulationFloor float64
	// NoRepair disables the repair events the generator adds by default:
	// a replacement join a few rounds after every kill blast, and a single
	// weight-preserving rebalance (Reconfigure with unchanged weights) at
	// the end of every timeline. Bare kill timelines reconverge on the
	// runtime's self-healing alone (dense alive-ranks plus threshold
	// re-densify), so a NoRepair campaign is expected to run clean — it is
	// the positive gate on that layer.
	NoRepair bool
	// Workers shards each simulation round with sosf.RunSpec's rule: 0 or
	// 1 runs serially, a negative value selects GOMAXPROCS. Results are
	// byte-identical at any value; this only changes the wall clock.
	Workers int
	// Log, when set, receives one progress line per run.
	Log io.Writer
}

// Campaign is a configured generative fuzzing campaign.
type Campaign struct {
	cfg        Config
	invariants []Invariant
}

// New applies defaults and assembles the invariant set: Reconverge,
// OrphanTail, and BandwidthCeiling always run; PopulationFloor joins when
// configured.
func New(cfg Config) *Campaign {
	if cfg.Runs <= 0 {
		cfg.Runs = 8
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 60
	}
	if cfg.ReconvergeWithin <= 0 {
		cfg.ReconvergeWithin = 40
	}
	if cfg.BandwidthCeiling <= 0 {
		cfg.BandwidthCeiling = 12288
	}
	invs := []Invariant{
		Reconverge{Within: cfg.ReconvergeWithin},
		OrphanTail{},
		BandwidthCeiling{MaxBytes: cfg.BandwidthCeiling},
	}
	if cfg.PopulationFloor > 0 {
		invs = append(invs, PopulationFloor{MinFraction: cfg.PopulationFloor})
	}
	return &Campaign{cfg: cfg, invariants: invs}
}

// RunID identifies one cell of the campaign matrix.
type RunID struct {
	// Index is the run's position in the campaign (0-based).
	Index int
	// Topology is the base topology's name.
	Topology string
	// Population is the initial node count.
	Population int
	// Seed is the run's derived simulation seed.
	Seed int64
}

// Finding is one invariant violation, already minimized: Source is the
// smallest .sos reproducer the shrinker could distill (embedding its own
// nodes/seed/rounds options, so it replays with no flags), and Events is
// the golden JSONL event stream that replay must reproduce byte for byte.
type Finding struct {
	RunID
	// CampaignSeed is the campaign master seed the finding derives from.
	CampaignSeed int64
	// Violation is the invariant failure as the minimal reproducer's own
	// run reported it.
	Violation Violation
	// Source is the minimal reproducer (dsl.Emit output).
	Source string
	// Events is Replay's JSONL stream for Source.
	Events []byte
	// ShrinkSteps counts accepted shrinking edits; CandidateRuns counts
	// every candidate execution the shrinker paid for.
	ShrinkSteps   int
	CandidateRuns int
}

// Run executes the whole campaign and returns every (minimized) finding,
// in run order. A clean campaign returns an empty slice and no error;
// errors mean the campaign itself could not run, not that an invariant
// failed.
func (c *Campaign) Run() ([]Finding, error) {
	var findings []Finding
	for i := 0; i < c.cfg.Runs; i++ {
		f, found, err := c.runOne(i)
		if err != nil {
			return findings, fmt.Errorf("campaign run %d: %w", i, err)
		}
		if found {
			findings = append(findings, f)
		}
	}
	c.logf("campaign seed %d: %d violation(s) in %d runs", c.cfg.Seed, len(findings), c.cfg.Runs)
	return findings, nil
}

// runOne builds, executes, checks, and (on violation) minimizes one run.
func (c *Campaign) runOne(idx int) (Finding, bool, error) {
	id := c.runID(idx)
	topo, err := c.buildRun(id)
	if err != nil {
		return Finding{}, false, err
	}
	run, err := c.execute(topo, true)
	if err != nil {
		return Finding{}, false, err
	}
	v := c.check(run)
	if v == nil {
		c.logf("run %d/%d %s pop=%d seed=%d: ok (%d events, %d rounds, converged=%v)",
			idx+1, c.cfg.Runs, id.Topology, id.Population, id.Seed,
			len(topo.Scenario), run.Rounds, run.Report.Converged)
		return Finding{}, false, nil
	}
	c.logf("run %d/%d %s pop=%d seed=%d: VIOLATION %s; shrinking",
		idx+1, c.cfg.Runs, id.Topology, id.Population, id.Seed, v)
	sh := newShrinker(c, v, run)
	minRun, minViol := sh.minimize()
	var golden bytes.Buffer
	if _, err := Replay(minRun.Source, &golden); err != nil {
		return Finding{}, false, fmt.Errorf("replaying minimal reproducer: %w", err)
	}
	c.logf("  minimized to %d event(s), %d nodes, %d rounds (%d accepted steps, %d candidate runs)",
		len(minRun.Spec.Scenario), minRun.InitialNodes, minRun.Rounds,
		sh.steps, sh.tried)
	return Finding{
		RunID:         id,
		CampaignSeed:  c.cfg.Seed,
		Violation:     *minViol,
		Source:        minRun.Source,
		Events:        golden.Bytes(),
		ShrinkSteps:   sh.steps,
		CandidateRuns: sh.tried,
	}, true, nil
}

// runID derives run idx's matrix cell and seed from the campaign seed.
func (c *Campaign) runID(idx int) RunID {
	t := topologies[idx%len(topologies)]
	pop := populations[(idx/len(topologies))%len(populations)]
	return RunID{Index: idx, Topology: t.name, Population: pop, Seed: deriveSeed(c.cfg.Seed, uint64(idx))}
}

// buildRun assembles the run's spec: the base topology with the matrix
// cell's nodes/seed options, a sampled fault timeline, and a round budget
// of Horizon + ReconvergeWithin so the Reconverge invariant is always
// judgeable.
func (c *Campaign) buildRun(id RunID) (*spec.Topology, error) {
	base := topologies[id.Index%len(topologies)]
	topo, err := dsl.ParseTopology(base.src)
	if err != nil {
		return nil, fmt.Errorf("base topology %q: %w", base.name, err)
	}
	topo.SetOption("nodes", int64(id.Population))
	topo.SetOption("seed", id.Seed)
	topo.SetOption("rounds", int64(c.cfg.Horizon+c.cfg.ReconvergeWithin))
	topo.Scenario = generateTimeline(timelineRand(id.Seed), topo, c.cfg, id.Population)
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("generated run %d (%s): %w", id.Index, base.name, err)
	}
	return topo, nil
}

// check returns the run's first violation: a resume-equivalence divergence
// wins, then the configured invariants in order.
func (c *Campaign) check(r *Run) *Violation {
	if r.Resume != nil {
		return r.Resume
	}
	for _, inv := range c.invariants {
		if v := inv.Check(r); v != nil {
			return v
		}
	}
	return nil
}

// checkNamed evaluates only the named invariant — the shrinker's
// predicate, so minimization never wanders onto a different failure.
func (c *Campaign) checkNamed(r *Run, name string) *Violation {
	if name == InvResume {
		return r.Resume
	}
	for _, inv := range c.invariants {
		if inv.Name() == name {
			return inv.Check(r)
		}
	}
	return nil
}

func (c *Campaign) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// Run is one executed campaign run: the spec that ran, everything it
// emitted, and the final system for end-state invariants. Events and
// Lines are parallel — Lines[i] is Events[i] JSONL-encoded, exactly the
// bytes `sos play -events jsonl` would stream for that round.
type Run struct {
	Spec   *spec.Topology
	Source string
	// Rounds is the executed round count (the spec's `option rounds`).
	Rounds int
	// InitialNodes is the boot population (the spec's `option nodes`).
	InitialNodes int
	// LastFault is the last round any fault event touches (0 if none).
	LastFault int
	Events    []sosf.RoundEvent
	Lines     [][]byte
	Report    *sosf.Report
	Sys       *sosf.System
	// Resume is the resume-equivalence violation, when that check ran and
	// the resumed stream diverged.
	Resume *Violation
}

// execute emits the spec to DSL source and runs that source through the
// public sosf API from round 0 — so every result, including a shrunk
// reproducer, is the behavior of exactly the bytes that would be
// committed. The run executes the spec's full `option rounds` budget (never
// stopping at convergence) with the spec's own seed and population. With
// checkResume set it also checkpoints at mid-run and runs the
// resume-equivalence check.
func (c *Campaign) execute(topo *spec.Topology, checkResume bool) (*Run, error) {
	src, err := dsl.Emit(topo)
	if err != nil {
		return nil, err
	}
	rounds := int(topo.Option("rounds", 0))
	if rounds <= 0 {
		return nil, fmt.Errorf("campaign: run spec must carry `option rounds`")
	}
	r := &Run{
		Spec:         topo,
		Source:       src,
		Rounds:       rounds,
		InitialNodes: int(topo.Option("nodes", 0)),
		LastFault:    lastFaultRound(topo.Scenario),
	}
	sys, err := sosf.New(src, sosf.RunSpec{Workers: c.cfg.Workers}.Options(sosf.WithRunToEnd())...)
	if err != nil {
		return nil, err
	}
	sys.Subscribe(collectInto(&r.Events, &r.Lines))
	mid := rounds / 2
	// A one-round run has no mid-run boundary to checkpoint at.
	checkResume = checkResume && mid > 0
	if _, err := sys.Step(mid); err != nil {
		return nil, err
	}
	var midSnap bytes.Buffer
	if checkResume {
		if err := sys.Snapshot(&midSnap); err != nil {
			return nil, err
		}
	}
	if _, err := sys.Step(rounds - mid); err != nil {
		return nil, err
	}
	if len(r.Events) != rounds {
		return nil, fmt.Errorf("campaign: executed %d rounds but captured %d events", rounds, len(r.Events))
	}
	r.Report = sys.Report()
	r.Sys = sys
	if checkResume {
		if err := c.resumeCheck(r, mid, midSnap.Bytes()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// resumeCheck restores the mid-run checkpoint into a fresh system built
// from the same source and replays the second half; any byte difference
// from the uninterrupted stream is a resume-equivalence violation (the
// determinism contract behind checkpoint/restore).
func (c *Campaign) resumeCheck(r *Run, mid int, snap []byte) error {
	var events []sosf.RoundEvent
	var lines [][]byte
	sys, err := sosf.New(r.Source, sosf.RunSpec{Workers: c.cfg.Workers}.Options(sosf.WithRunToEnd())...)
	if err != nil {
		return err
	}
	sys.Subscribe(collectInto(&events, &lines))
	if err := sys.Restore(bytes.NewReader(snap)); err != nil {
		return err
	}
	if _, err := sys.Step(r.Rounds - mid); err != nil {
		return err
	}
	if len(lines) != r.Rounds-mid {
		r.Resume = &Violation{
			Invariant: InvResume,
			Round:     mid,
			Detail: fmt.Sprintf("resume from round %d produced %d events, the uninterrupted run %d",
				mid, len(lines), r.Rounds-mid),
		}
		return nil
	}
	for i, line := range lines {
		if !bytes.Equal(line, r.Lines[mid+i]) {
			r.Resume = &Violation{
				Invariant: InvResume,
				Round:     mid + i + 1,
				Detail: fmt.Sprintf("round %d of the run resumed from round %d diverges from the uninterrupted run",
					mid+i+1, mid),
			}
			return nil
		}
	}
	return nil
}

// collectInto returns a round-event subscriber appending each event and
// its JSONL encoding (identical bytes to sosf.JSONLSink's output) to the
// given slices.
func collectInto(events *[]sosf.RoundEvent, lines *[][]byte) func(sosf.RoundEvent) {
	return func(ev sosf.RoundEvent) {
		line, err := json.Marshal(ev)
		if err != nil {
			// RoundEvent is a plain data struct; Marshal cannot fail.
			panic(err)
		}
		*events = append(*events, ev)
		*lines = append(*lines, append(line, '\n'))
	}
}

// lastFaultRound returns the last round any fault event touches. Snapshot
// actions are not faults; everything else (including joins and
// reconfigurations) perturbs the system and restarts the reconvergence
// clock.
func lastFaultRound(events []spec.ScenarioEvent) int {
	last := 0
	for _, ev := range events {
		if ev.Kind == spec.ScenSnapshot {
			continue
		}
		if ev.To > last {
			last = ev.To
		}
	}
	return last
}

// deriveSeed is a splitmix64-style mix of the campaign seed and a salt,
// masked positive so it survives a round trip through `option seed`.
func deriveSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) ^ (salt+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}
