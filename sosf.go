package sosf

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"sosf/internal/core"
	"sosf/internal/dsl"
	"sosf/internal/scenario"
	"sosf/internal/sim"
	"sosf/internal/spec"
	"sosf/internal/view"
)

// SubReport is the outcome of one runtime sub-procedure. The JSON field
// names are stable (they back `sos run -json`).
type SubReport struct {
	// Name is the paper's series label ("Elementary Topology", ...).
	Name string `json:"name"`
	// ConvergedAt is the first round the layer reached accuracy 1.0
	// (-1 if it never did).
	ConvergedAt int `json:"converged_at"`
	// Final is the accuracy at the end of the run, in [0, 1].
	Final float64 `json:"final"`
}

// Report summarizes a run. The JSON field names are stable (they back
// `sos run -json`).
type Report struct {
	// Topology is the name from the DSL source.
	Topology string `json:"topology"`
	// Components and Links count the assembled pieces.
	Components int `json:"components"`
	// Links is documented with Components.
	Links int `json:"links"`
	// Nodes is the final alive population.
	Nodes int `json:"nodes"`
	// Rounds is the number of simulated rounds.
	Rounds int `json:"rounds"`
	// Converged reports whether every sub-procedure reached 1.0.
	Converged bool `json:"converged"`
	// Subs holds one entry per runtime sub-procedure, in the paper's
	// presentation order.
	Subs []SubReport `json:"subs"`
	// BaselineBytes and OverheadBytes are mean bytes per node per round
	// for the shape protocols (peer sampling + cores) and the runtime
	// layers (UO1, UO2, port selection, port connection).
	BaselineBytes float64 `json:"baseline_bytes"`
	// OverheadBytes is documented with BaselineBytes.
	OverheadBytes float64 `json:"overhead_bytes"`
}

// String renders a compact human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology %q: %d components, %d links, %d nodes\n",
		r.Topology, r.Components, r.Links, r.Nodes)
	fmt.Fprintf(&b, "rounds: %d  converged: %v\n", r.Rounds, r.Converged)
	for _, s := range r.Subs {
		conv := "never"
		if s.ConvergedAt >= 0 {
			conv = fmt.Sprintf("round %d", s.ConvergedAt)
		}
		fmt.Fprintf(&b, "  %-26s converged: %-10s final accuracy: %.3f\n", s.Name, conv, s.Final)
	}
	fmt.Fprintf(&b, "bandwidth per node per round: baseline %.0f B, runtime overhead %.0f B\n",
		r.BaselineBytes, r.OverheadBytes)
	return b.String()
}

// Validate parses and validates DSL source without running anything.
func Validate(src string) error {
	_, err := ParseSource(src)
	return err
}

// ErrHealOptionRemoved is what New and Validate return for a source that
// still carries `option heal`: the knob is gone, and running the file with
// healing on would silently simulate something other than what it pinned.
var ErrHealOptionRemoved = errors.New("sosf: option heal was removed; self-healing is always on")

// ParseSource compiles the DSL source a run is built from, with the checks
// New applies (ErrHealOptionRemoved). spec is an internal package, so this
// is an intra-module affordance: it is how `sos serve` refuses a job spec
// at submission that New would refuse at start.
func ParseSource(src string) (*spec.Topology, error) {
	topo, err := dsl.ParseTopology(src)
	if err != nil {
		return nil, err
	}
	if _, ok := topo.Options["heal"]; ok {
		return nil, ErrHealOptionRemoved
	}
	return topo, nil
}

// Run builds the system described by the DSL source, simulates it, and
// reports convergence — the one-call entry point.
//
//	report, err := sosf.Run(src, sosf.WithNodes(500), sosf.WithSeed(7))
func Run(src string, opts ...Option) (*Report, error) {
	sys, err := New(src, opts...)
	if err != nil {
		return nil, err
	}
	rounds := sys.RoundBudget()
	if !sys.cfg.roundsSet && sys.horizon > rounds {
		// Without an explicit WithRounds, a scenario run extends to the
		// timeline's horizon (like `sos play`) so no scheduled action is
		// silently truncated by the default cap.
		rounds = sys.horizon
	}
	if _, err := sys.Step(rounds); err != nil {
		return nil, err
	}
	return sys.Report(), nil
}

// System is a live simulated deployment that can be stepped, reconfigured,
// damaged interactively or by its source's `scenario` block, and observed
// through a streaming round-event interface — what the examples build on.
type System struct {
	cfg        *config
	sys        *core.System
	tracker    *core.Tracker
	bound      *scenario.Bound
	horizon    int
	fileRounds int // the source's `option rounds` (0 when absent)
	events     []func(RoundEvent)
	err        error // the first failure of a round's end, surfaced by Step
	// healsSeen is the allocator heal count already reported through the
	// event stream; emit publishes the per-round delta and Restore re-syncs
	// it so a resumed run reports the same heals as the uninterrupted one.
	healsSeen uint64
}

// New compiles the DSL source and boots the full runtime stack over a
// fresh node population.
//
//	sys, err := sosf.New(src, sosf.WithNodes(500), sosf.WithChurn(0.01))
func New(src string, opts ...Option) (*System, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	topo, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	if !cfg.seedSet {
		// A .sos file can pin its own seed (`option seed 7`) so a committed
		// reproducer replays its exact run with no flags. An explicit
		// WithSeed always wins; the DefaultSeed applies only when neither
		// the caller nor the file says anything.
		cfg.seed = topo.Option("seed", cfg.seed)
	}
	sys, err := core.NewSystem(core.Config{
		Topology: topo,
		Nodes:    cfg.nodes,
		Seed:     cfg.seed,
		Workers:  cfg.workers,
		LossRate: cfg.lossRate,
	})
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, sys: sys, fileRounds: int(topo.Option("rounds", 0))}
	if len(topo.Scenario) > 0 {
		tl := scenario.New(topo.Scenario)
		bound, err := tl.Bind(sys)
		if err != nil {
			return nil, err
		}
		s.bound, s.horizon = bound, tl.Horizon()
		// A timeline implies playing it out; stopping at the first
		// convergence would silently skip every later event.
		cfg.runToEnd = true
	}
	s.tracker = core.NewTracker(sys)
	sys.Engine().SetRoundEnd(s.endRound)
	if cfg.restorePath != "" {
		// Restore reads the file in chunks; the checkpoint is never held
		// in memory whole.
		f, err := os.Open(cfg.restorePath)
		if err != nil {
			return nil, err
		}
		err = s.Restore(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("sosf: restore from %s: %w", cfg.restorePath, err)
		}
	}
	return s, nil
}

// Step simulates up to n more rounds (stopping early at convergence unless
// WithRunToEnd was set or a scenario is playing) and returns the rounds
// actually executed.
func (s *System) Step(n int) (int, error) {
	return s.StepContext(context.Background(), n)
}

// endRound is the System's engine round-end hook, so a round ends in one
// place and in one order: the scenario's due actions fire, churn replaces
// nodes, the tracker measures the post-action state, and the round event
// reports what the tracker saw. The round's checkpoints come last — the
// scheduled `snapshot` actions in timeline order, then WithSnapshotEvery's
// — so each holds the state the next round starts from, which is what
// `sos snapshot -rounds R` writes. The run stops at convergence unless it
// runs to the end, and on the round's first failure, an action's and then
// a checkpoint write's, which surfaces from Step and DistRound.
func (s *System) endRound(e *sim.Engine) bool {
	round := e.Round()
	var rep scenario.Report
	if s.bound != nil {
		rep = s.bound.Tick(round)
		if rep.Reconfigured {
			// A scheduled reconfiguration restarts the convergence clock,
			// exactly like an interactive ReconfigureSource.
			s.tracker.Reset()
		}
		if s.err == nil {
			s.err = s.bound.Err()
		}
	}
	if s.cfg.churnRate > 0 {
		s.sys.Churn(s.cfg.churnRate)
	}
	s.tracker.Update()
	s.emit(e, rep.Fired)
	for _, path := range rep.Snapshots {
		s.checkpoint(path, round)
	}
	if s.cfg.snapEvery > 0 && round%s.cfg.snapEvery == 0 {
		s.checkpoint(s.cfg.snapPath, round)
	}
	return (!s.cfg.runToEnd && s.tracker.Last.AllConverged()) || s.err != nil
}

// checkpoint writes the checkpoint a path template names for the round,
// unless the round has already failed.
func (s *System) checkpoint(template string, round int) {
	if s.err == nil {
		s.err = s.WriteSnapshot(snapshotPath(template, round))
	}
}

// StepContext is Step with cooperative cancellation: the context is checked
// at every round boundary, never mid-round, so a cancelled system is always
// left in a state that can be snapshotted (WriteSnapshot) or stepped again.
// A cancelled call returns the rounds it executed together with ctx.Err();
// this is what `sos serve` uses to pause and stop jobs cleanly, and what
// turns a SIGINT in `sos play` into a final checkpoint instead of a
// mid-round death. A System whose round end has failed stays stopped:
// every later call returns that failure without running a round.
func (s *System) StepContext(ctx context.Context, n int) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	executed, err := s.sys.RunContext(ctx, n)
	if s.err != nil {
		return executed, s.err
	}
	return executed, err
}

// Engine returns the underlying round engine. sim is an internal package,
// so this is an intra-module affordance: it is the handle the distributed
// runner (internal/dist) shards rounds and imports remote plans through.
func (s *System) Engine() *sim.Engine { return s.sys.Engine() }

// Size returns the engine's slot-space size (alive and dead slots alike) —
// the domain a distributed run partitions into contiguous shards. Every
// replica of a run sees the same size at the same round, so shard bounds
// recomputed from it stay consistent across processes.
func (s *System) Size() int { return s.sys.Engine().Size() }

// DistRound executes one round with the Plan phase of the exchange-routing
// protocols restricted to the alive slots in [lo, hi), invoking exch at
// each such protocol's Deliver barrier — the distributed sibling of Step.
// It ends the round as Step does and returns the same first failure
// (endRound), so coordinator and worker loops built on it observe the
// failures a serial run would; after a failure it runs nothing and returns
// that failure again.
func (s *System) DistRound(lo, hi int, exch sim.ShardExchange) (stop bool, err error) {
	if s.err != nil {
		return true, s.err
	}
	stop, err = s.sys.Engine().RunRoundSharded(lo, hi, exch)
	if err != nil {
		return stop, err
	}
	return stop, s.err
}

// RoundBudget resolves the run's round budget: an explicit WithRounds wins,
// otherwise the source's `option rounds`, otherwise DefaultRounds. This is
// what `sos run/play/snapshot/dot` simulate when no -rounds flag is given,
// so a .sos file carrying `option rounds` is self-contained.
func (s *System) RoundBudget() int {
	if s.cfg.roundsSet {
		return s.cfg.rounds
	}
	if s.fileRounds > 0 {
		return s.fileRounds
	}
	return DefaultRounds
}

// PlayHorizon returns the round a played run ends at: the round budget,
// extended to the scenario horizon so the last scheduled action always
// fires. `sos play` and `resume`, served jobs, corpus replays, and `sos
// dist` without an explicit target all run to it.
func (s *System) PlayHorizon() int { return max(s.RoundBudget(), s.horizon) }

// ScenarioHorizon returns the last round the system's scenario timeline
// touches (0 when no scenario is scheduled) — the minimum number of rounds
// a run must execute to play the whole script.
func (s *System) ScenarioHorizon() int { return s.horizon }

// ReconfigureSource swaps in a new target topology from DSL source. The
// system keeps running; every layer re-converges to the new shape.
func (s *System) ReconfigureSource(src string) error {
	topo, err := dsl.ParseTopology(src)
	if err != nil {
		return err
	}
	if err := s.sys.Reconfigure(topo); err != nil {
		return err
	}
	// Convergence marks restart: the interesting question after a
	// reconfiguration is how fast the *new* shape assembles.
	s.tracker.Reset()
	return nil
}

// Kill fails a fraction of all nodes at once (catastrophic failure
// injection), returning how many died.
func (s *System) Kill(fraction float64) int {
	return len(s.sys.Kill(fraction))
}

// KillComponent fails every current member of the named component
// (targeted failure injection), returning how many died. Unknown names
// kill nothing.
func (s *System) KillComponent(name string) int {
	return s.sys.KillComponent(name)
}

// Connected reports whether the realized system topology (component
// overlays plus established links) is one connected piece over all alive
// nodes.
func (s *System) Connected() bool {
	return s.sys.Oracle().RealizedGraph().ConnectedOver(s.sys.Engine().AliveSlots())
}

// OrphanCount reports the health of the peer-sampling substrate: alive is
// the current population and orphans how many of those nodes appear in
// nobody's peer-sampling view (in-degree zero). The bulk-synchronous
// rounds plan every exchange against round-start views, so a transient
// orphan tail of up to ~1% can appear under faults and self-heals within a
// few rounds; a persistent tail beyond that signals a broken overlay (the
// fuzzing campaign's orphan invariant watches exactly this).
func (s *System) OrphanCount() (orphans, alive int) {
	eng := s.sys.Engine()
	rps := s.sys.RPS()
	slots := eng.AliveSlots()
	indeg := make(map[int]int, len(slots))
	for _, slot := range slots {
		for _, id := range rps.View(slot).IDs() {
			if n := eng.Lookup(id); n != nil && n.Alive {
				indeg[n.Slot]++
			}
		}
	}
	for _, slot := range slots {
		if indeg[slot] == 0 {
			orphans++
		}
	}
	return orphans, len(slots)
}

// ManagerPorts returns the "component.port" keys of a Managers map in
// sorted order, for deterministic iteration and reporting.
func ManagerPorts(managers map[string]int64) []string {
	ports := make([]string, 0, len(managers))
	for p := range managers {
		ports = append(ports, p)
	}
	sort.Strings(ports)
	return ports
}

// Managers returns the ground-truth manager node of every port, keyed by
// "component.port". Ports of empty components are omitted.
func (s *System) Managers() map[string]int64 {
	topo := s.sys.Allocator().Topology()
	oracle := s.sys.Oracle()
	out := make(map[string]int64)
	for ci, members := range oracle.Members() {
		comp := view.ComponentID(ci)
		for pi, port := range topo.Components[ci].Ports {
			if mgr, ok := oracle.Winner(members, comp, int32(pi)); ok {
				out[topo.Components[ci].Name+"."+port] = int64(mgr.ID)
			}
		}
	}
	return out
}

// StuckComponents names the components whose elementary shape is not fully
// realized right now (empty when Elementary Topology is at 1.0), in
// topology order — the per-component refinement of Accuracy's "Elementary
// Topology" entry, for diagnosing which component failed to (re)assemble.
func (s *System) StuckComponents() []string {
	return s.sys.Oracle().StuckComponents()
}

// Accuracy returns the current accuracy of every sub-procedure, keyed by
// the paper's series labels.
func (s *System) Accuracy() map[string]float64 {
	m := s.sys.Oracle().Measure()
	out := make(map[string]float64, 5)
	for _, sub := range core.Subs() {
		out[sub.String()] = m.Fraction[sub]
	}
	return out
}

// Report summarizes the run so far.
func (s *System) Report() *Report {
	topo := s.sys.Allocator().Topology()
	rep := &Report{
		Topology:   topo.Name,
		Components: len(topo.Components),
		Links:      len(topo.Links),
		Nodes:      s.sys.Engine().AliveCount(),
		Rounds:     s.sys.Engine().Round(),
	}
	m := s.sys.Oracle().Measure()
	rep.Converged = m.AllConverged()
	for _, sub := range core.Subs() {
		rep.Subs = append(rep.Subs, SubReport{
			Name:        sub.String(),
			ConvergedAt: s.tracker.ConvergenceRound(sub),
			Final:       m.Fraction[sub],
		})
	}
	meterRounds := s.sys.Engine().Meter().Rounds()
	if meterRounds > 0 && rep.Nodes > 0 {
		var base, over int64
		for r := 0; r < meterRounds; r++ {
			b, o := s.sys.BandwidthByClass(r)
			base += b
			over += o
		}
		div := float64(meterRounds) * float64(rep.Nodes)
		rep.BaselineBytes = float64(base) / div
		rep.OverheadBytes = float64(over) / div
	}
	return rep
}

// ProtocolNames returns the names of the metered protocol layers in their
// per-round step order (peer sampling first). The order matches the byte
// slices returned by ProtocolBandwidth.
func (s *System) ProtocolNames() []string {
	return s.sys.Engine().Meter().Names()
}

// ProtocolBandwidth returns the bytes each protocol layer put on the
// simulated wire during the given completed round (0-based), in
// ProtocolNames order. It returns nil when the round has not completed.
// This is the per-layer refinement of RoundEvent's baseline/overhead split,
// and it is what feeds the per-protocol bandwidth counters of the
// `sos serve` /metrics endpoint.
func (s *System) ProtocolBandwidth(round int) []int64 {
	m := s.sys.Engine().Meter()
	if round < 0 || round >= m.Rounds() {
		return nil
	}
	out := make([]int64, len(m.Names()))
	for p := range out {
		out[p] = m.RoundTotal(round, p)
	}
	return out
}

// DOT renders the realized system topology (the union of the component
// overlays plus the established inter-component links) as a Graphviz
// document, one color per component, port managers drawn as boxes.
func (s *System) DOT() string {
	eng := s.sys.Engine()
	oracle := s.sys.Oracle()
	g := oracle.RealizedGraph()
	topo := s.sys.Allocator().Topology()

	palette := []string{
		"#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3",
		"#fdb462", "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd",
	}
	managers := make(map[int]bool)
	members := oracle.Members()
	for _, side := range s.sys.Allocator().Sides() {
		if mgr, ok := oracle.Winner(members[side.Comp], side.Comp, side.Port); ok {
			managers[mgr.Slot] = true
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n  overlap=false;\n  node [style=filled];\n", topo.Name)
	for _, slot := range eng.AliveSlots() {
		n := eng.Node(slot)
		color := palette[int(n.Profile.Comp)%len(palette)]
		shape := "circle"
		if managers[slot] {
			shape = "box"
		}
		label := ""
		if n.Profile.Comp >= 0 && int(n.Profile.Comp) < len(topo.Components) {
			label = topo.Components[n.Profile.Comp].Name
		}
		fmt.Fprintf(&b, "  n%d [label=%q, fillcolor=%q, shape=%s];\n",
			n.ID, fmt.Sprintf("%s/%d", label, n.Profile.Index), color, shape)
	}
	type edge struct{ a, b view.NodeID }
	var edges []edge
	for _, slot := range eng.AliveSlots() {
		for _, peer := range g.Neighbors(slot) {
			if slot < peer {
				edges = append(edges, edge{eng.Node(slot).ID, eng.Node(peer).ID})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -- n%d;\n", e.a, e.b)
	}
	b.WriteString("}\n")
	return b.String()
}
