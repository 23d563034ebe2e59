package core

import (
	"context"
	"errors"
	"fmt"

	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/spec"
	"sosf/internal/vicinity"
)

// Config configures a System. Topology is required; zero values elsewhere
// take defaults chosen to match the paper's evaluation setup.
type Config struct {
	// Topology is the compiled target topology (required, validated).
	Topology *spec.Topology
	// Nodes is the population size. Defaults to the topology's "nodes"
	// option; it is an error if neither is set.
	Nodes int
	// Seed drives all randomness of the run.
	Seed int64
	// Workers shards the parallel phases of each round across this many
	// workers. 0 or 1 runs serially in place; negative selects GOMAXPROCS.
	// The result is byte-identical for every value — workers only change
	// how fast a round executes.
	Workers int

	// UO1Capacity is the same-component view size (default 8).
	UO1Capacity int
	// OverlayGossip is the per-exchange descriptor budget of the Vicinity
	// instances (default vicinity.DefaultGossip).
	OverlayGossip int
	// LossRate is the probability that any exchange is lost in transit.
	LossRate float64

	// DisableUO2 removes the distant-component overlay (ablation): port
	// connection then falls back to scanning the peer-sampling view.
	DisableUO2 bool
	// PureGreedy removes the random candidate feed from the overlays
	// (ablation): pure T-Man-style greedy gossip.
	PureGreedy bool
	// DisableHealing turns off the self-healing layer: gradient rankers
	// fall back to comparing sparse Profile.Index values and the allocator
	// never re-densifies on vacancy buildup, so an unreplaced death pins
	// index-structured shapes below accuracy 1.0 until a Reconfigure. No
	// CLI, DSL or sosf option reaches it: it is the negative control that
	// shows reconvergence is the repair's doing (and a snapshot field).
	DisableHealing bool
}

func (c Config) withDefaults() Config {
	if c.UO1Capacity <= 0 {
		c.UO1Capacity = 8
	}
	if c.OverlayGossip <= 0 {
		c.OverlayGossip = vicinity.DefaultGossip
	}
	return c
}

// overlayMaxAge bounds descriptor staleness in the UO1 and core overlay
// views: large enough that entries of dense shapes (whose refresh gaps
// stretch with component size) do not flicker out, small enough that dead
// nodes — which additionally accumulate failed-contact penalties — purge
// quickly.
const overlayMaxAge = 30

// System wires the full runtime stack of the paper's Figure 1 into a
// simulation engine: peer sampling at the bottom, then UO1 and UO2, the
// per-component core protocol, and the port selection / port connection
// sub-procedures on top.
type System struct {
	cfg    Config
	eng    *sim.Engine
	alloc  *Allocator
	rps    *peersampling.Protocol
	uo1    *vicinity.Protocol
	uo2    *UO2
	core   *vicinity.Protocol
	ports  *PortSelect
	conns  *PortConnect
	oracle *Oracle

	baselineMeters []int
	overheadMeters []int
}

// ErrNoPopulation is returned when neither Config.Nodes nor the topology's
// "nodes" option provides a population size.
var ErrNoPopulation = errors.New("core: population size not set (Config.Nodes or topology option \"nodes\")")

// NewSystem builds and initializes a system: engine, protocol stack, node
// population, and role allocation. The system is ready to Run.
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.Topology == nil {
		return nil, errors.New("core: Config.Topology is required")
	}
	alloc, err := NewAllocator(cfg.Topology)
	if err != nil {
		return nil, err
	}
	alloc.SetHealing(!cfg.DisableHealing)
	if cfg.Nodes <= 0 {
		cfg.Nodes = int(cfg.Topology.Option("nodes", 0))
	}
	if cfg.Nodes <= 0 {
		return nil, ErrNoPopulation
	}
	if cfg.Nodes < len(cfg.Topology.Components) {
		return nil, fmt.Errorf("core: %d nodes cannot populate %d components",
			cfg.Nodes, len(cfg.Topology.Components))
	}

	s := &System{cfg: cfg, alloc: alloc}
	s.eng = sim.New(cfg.Seed)
	s.eng.SetLossRate(cfg.LossRate)
	if cfg.Workers != 0 {
		s.eng.SetWorkers(cfg.Workers)
	}

	overlayOpts := vicinity.Options{
		Gossip:       cfg.OverlayGossip,
		MaxAge:       overlayMaxAge,
		NoRandomFeed: cfg.PureGreedy,
	}
	s.rps = peersampling.New()
	s.uo1 = vicinity.New("uo1", uo1Ranker{alloc: alloc, capacity: cfg.UO1Capacity}, s.rps, overlayOpts)
	if !cfg.DisableUO2 {
		s.uo2 = NewUO2(alloc, s.rps)
	}
	// The core protocol feeds off UO1: same-component candidates flow in
	// for free, which is exactly why the runtime builds UO1 at all.
	s.core = vicinity.New("core", coreRanker{alloc: alloc}, s.rps, overlayOpts, s.uo1)
	s.ports = NewPortSelect(alloc, s.uo1, s.core)
	s.conns = NewPortConnect(alloc, s.ports, s.uo2, s.rps)

	baseline := []sim.Protocol{s.rps, s.core}
	overhead := []sim.Protocol{s.uo1, s.ports, s.conns}
	if s.uo2 != nil {
		overhead = append(overhead, s.uo2)
	}
	// Registration order is the per-round step order: bottom of the stack
	// first, exactly like a PeerSim cycle-driven protocol stack.
	order := []sim.Protocol{s.rps, s.uo1}
	if s.uo2 != nil {
		order = append(order, s.uo2)
	}
	order = append(order, s.core, s.ports, s.conns)
	index := make(map[sim.Protocol]int, len(order))
	for _, p := range order {
		index[p] = s.eng.Register(p)
	}
	for _, p := range baseline {
		s.baselineMeters = append(s.baselineMeters, index[p])
	}
	for _, p := range overhead {
		s.overheadMeters = append(s.overheadMeters, index[p])
	}

	slots := s.eng.AddNodes(cfg.Nodes)
	for _, slot := range slots {
		s.eng.Node(slot).Profile.Key = s.eng.Rand().Uint64()
	}
	s.alloc.AssignAll(s.eng)
	for _, slot := range slots {
		s.eng.InitNode(slot)
	}
	s.oracle = &Oracle{sys: s}
	return s, nil
}

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Allocator exposes the role allocator.
func (s *System) Allocator() *Allocator { return s.alloc }

// Oracle exposes the convergence oracle.
func (s *System) Oracle() *Oracle { return s.oracle }

// RPS exposes the peer-sampling layer.
func (s *System) RPS() *peersampling.Protocol { return s.rps }

// Run executes up to maxRounds rounds (stopping early if an observer asks).
func (s *System) Run(maxRounds int) (int, error) { return s.eng.Run(maxRounds) }

// RunContext executes up to maxRounds rounds, checking the context at every
// round boundary; a cancelled run returns the rounds executed and ctx.Err().
// The system is always left between rounds, so it can be snapshotted or
// resumed after a cancellation.
func (s *System) RunContext(ctx context.Context, maxRounds int) (int, error) {
	return s.eng.RunContext(ctx, maxRounds)
}

// Reconfigure swaps in a new target topology mid-run: the epoch is bumped,
// every alive node gets a fresh role, and all layers re-converge while
// evicting stale-epoch state on contact — the paper's experiment (iii).
func (s *System) Reconfigure(topo *spec.Topology) error {
	return s.alloc.Reconfigure(s.eng, topo)
}

// AddNodes grows the population by n joining nodes (key, role, protocol
// bootstrap), returning their slots. Runs at the serial round barrier, so
// the dense-rank flush below never races the parallel round phases.
func (s *System) AddNodes(n int) []int {
	slots := s.eng.AddNodes(n)
	for _, slot := range slots {
		s.initJoin(slot)
	}
	s.alloc.FlushRanks()
	return slots
}

func (s *System) initJoin(slot int) {
	node := s.eng.Node(slot)
	node.Profile.Key = s.eng.Rand().Uint64()
	s.alloc.AssignJoin(node)
	s.eng.InitNode(slot)
}

// Kill fails ceil(f × alive) random nodes, keeping the allocator's size
// estimates in sync. Returns the failed slots. Like every membership
// mutation it runs at the serial round barrier: the dense-rank tables are
// flushed and vacancy buildup may trigger a self-healing re-densify here,
// never inside the parallel round phases.
func (s *System) Kill(f float64) []int {
	killed := s.eng.KillFraction(f)
	for _, slot := range killed {
		s.alloc.NoteLeave(s.eng.Node(slot))
	}
	s.alloc.FlushRanks()
	s.alloc.MaybeHeal(s.eng)
	return killed
}

// KillComponent fails every current member of the named component (targeted
// failure injection), returning how many died. Unknown names kill nothing.
func (s *System) KillComponent(name string) int {
	ci := s.alloc.Topology().ComponentIndex(name)
	if ci < 0 {
		return 0
	}
	killed := 0
	for _, slot := range s.eng.AliveSlots() {
		n := s.eng.Node(slot)
		if int(n.Profile.Comp) == ci {
			s.eng.Kill(slot)
			s.alloc.NoteLeave(n)
			killed++
		}
	}
	s.alloc.FlushRanks()
	s.alloc.MaybeHeal(s.eng)
	return killed
}

// Churn kills fraction f of the alive population (Kill) and replaces every
// killed node with a fresh join (AddNodes), returning how many it replaced.
func (s *System) Churn(f float64) int {
	killed := s.Kill(f)
	if len(killed) > 0 {
		s.AddNodes(len(killed))
	}
	return len(killed)
}

// BandwidthByClass returns the bytes spent in the given round by the
// baseline class (peer sampling + the core shape protocol — the cost of
// running the elementary topologies alone) and by the runtime-overhead
// class (UO1, UO2, port selection, port connection), matching the two
// series of the paper's Figure 4.
func (s *System) BandwidthByClass(round int) (baseline, overhead int64) {
	m := s.eng.Meter()
	return m.RoundSum(round, s.baselineMeters...), m.RoundSum(round, s.overheadMeters...)
}
