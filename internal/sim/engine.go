package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"sosf/internal/view"
)

// Protocol is one layer of the per-node gossip stack. The engine calls
// Resize whenever the node table grows or is restored, InitNode when a
// node joins (or re-joins after a reconfiguration), and then drives each
// round as phases per protocol, in registration order — see the package
// documentation for the five-phase round contract. The Deliver phase is
// engine-driven (the per-destination-shard inbox merge): a protocol routes
// exchanges if and only if it implements PlanCodec, and it then routes
// with Ctx.Route in Plan and reads what it received in Absorb through
// Ctx.Target, FirstSender and NextSender. Ctx.Count meters the protocol
// whose phase is running.
type Protocol interface {
	// Name identifies the protocol in bandwidth reports and traces.
	Name() string
	// Resize sets the protocol's per-slot tables to cover exactly n
	// slots, keeping the storage of the slots below n. The engine calls
	// it serially, from AddNodes and RestoreState, before any InitNode or
	// RestoreSlot of the new slots; it must draw no randomness.
	Resize(n int)
	// InitNode prepares per-node state for the node occupying slot.
	InitNode(e *Engine, slot int)
	// Refresh runs the slot's local state maintenance (phase 1).
	Refresh(ctx *Ctx)
	// Plan computes, meters, and routes the slot's exchange (phase 2).
	Plan(ctx *Ctx)
	// Absorb folds received payloads into the slot's state (phase 4).
	Absorb(ctx *Ctx)
}

// Node is one simulated process. Slot is its dense index in the engine;
// ID is its globally unique, never-reused identity. Profile is assigned by
// the runtime's role allocator and carried inside gossip descriptors.
type Node struct {
	Slot    int
	ID      view.NodeID
	Alive   bool
	Joined  int // round at which the node (last) joined
	Profile view.Profile
}

// Descriptor returns a fresh (age-0) descriptor advertising this node.
func (n *Node) Descriptor() view.Descriptor {
	return view.Descriptor{ID: n.ID, Age: 0, Profile: n.Profile}
}

// Engine is the simulation kernel.
type Engine struct {
	rng *rand.Rand
	// src is rng's underlying source, wrapped to count draws: the count is
	// what lets Snapshot capture the serial RNG's position and Restore
	// replay it against a fresh source (see snapshot.go).
	src  *countedSource
	seed int64
	// nodes is the dense node table — one contiguous array, not per-node
	// heap objects, so phases stream it in slot order. Node pointers
	// (Engine.Node, Lookup, RandomAlive) point into this array and are
	// stable until the next AddNodes; don't hold them across joins.
	nodes     []Node
	slotOfID  []int // dense NodeID -> slot index (IDs are monotonic, never reused)
	protocols []Protocol
	// inboxes[pi] is protocol pi's route table (nil for protocols that
	// route nothing); the engine grows it with the node table, resets a
	// slot's entry in Refresh and merges it in the Deliver phase.
	inboxes []*inbox
	// roundEnd is the owner's round-end hook (see SetRoundEnd); nil ends
	// every round without stopping.
	roundEnd  func(e *Engine) (stop bool)
	meter     *Meter
	round     int
	nextID    view.NodeID
	lossRate  float64
	partition []int // group per slot; nil when the network is whole

	// aliveSlots caches the slots of alive nodes in slot order. It is
	// invalidated by every liveness mutation (AddNodes, Kill, and
	// through them KillFraction) and rebuilt lazily into the same backing
	// array, so steady-state rounds neither scan nor allocate.
	aliveSlots []int
	aliveOK    bool
	// randScratch backs RandomAlive's low-liveness fallback filter.
	randScratch []int

	// Worker pool for the parallel phases. ctxs holds one execution
	// context (scratch pad + stream slot + meter shard) per worker; the
	// pool's goroutines park on jobs between phases so a steady-state
	// round spawns nothing and allocates nothing. poolSize counts
	// goroutines actually started (they are never stopped while the
	// engine lives; closer's finalizer closes jobs so they exit when the
	// engine is collected).
	workers  int
	ctxs     []Ctx
	jobs     chan phaseJob
	done     chan struct{}
	closer   *poolCloser
	poolSize int
}

// poolCloser carries the finalizer that closes an engine's jobs channel.
// Only the engine points at it, so it becomes unreachable with the engine.
// The finalizer cannot sit on the Engine itself: the runtime never
// finalizes an object reachable from itself, and every worker context
// points back at its engine.
type poolCloser struct{ jobs chan phaseJob }

// ErrNoProtocols is returned by Run when the engine has no protocol stack.
var ErrNoProtocols = errors.New("sim: engine has no registered protocols")

// New creates an engine seeded with the given seed.
func New(seed int64) *Engine {
	src := newCountedSource(seed)
	return &Engine{
		rng:     rand.New(src),
		src:     src,
		seed:    seed,
		meter:   NewMeter(),
		workers: 1,
	}
}

// Pad is a bundle of reusable scratch buffers the engine lends to protocols
// so a steady-state gossip exchange performs zero heap allocations. A
// protocol grabs the pad from its phase context, slices the buffers it
// needs from their [:0] prefixes, and writes the grown slices back so
// capacity is retained for the slot processed next.
//
// There is one pad per worker; a protocol must not hold pad buffers across
// phase calls — anything that outlives the slot's turn belongs in the
// protocol's per-slot plan records.
type Pad struct {
	// Sample is for intermediate descriptor selections (random samples).
	Sample []view.Descriptor
	// Same is for filtered contact lists (same-component candidates,
	// members of a remote component).
	Same []view.Descriptor
	// Keys is for ranked candidate selection: an overlay ranks a merged
	// pool once into one compact key per rankable candidate, selects the
	// best keys, and gathers only the descriptors it keeps.
	Keys []view.RankKey
	// IDs is for node-ID work lists (e.g. Cyclon's replaceable set).
	IDs []view.NodeID
	// Merger is the shared descriptor-merge scratch (output buffer plus
	// generation-stamped dedup table; Result is valid until the next Begin).
	Merger view.Merger
	// Sampler is the shared partial-permutation scratch.
	Sampler view.Sampler
}

// Ctx is the execution context of one parallel phase call: which slot is
// being processed, that slot's random stream for the phase, the worker's
// scratch pad, and the worker's meter shard. Ctx values are engine-owned
// and reused; protocols must not retain them across calls.
type Ctx struct {
	e    *Engine
	slot int
	rng  Stream
	pad  Pad
	// pi is the index of the protocol whose phase is running, and box its
	// route table (nil when it routes nothing).
	pi  int
	box *inbox
	// counts is the worker's per-protocol meter shard: Plan-time byte
	// counts accumulate here race-free and fold into the shared Meter at
	// the round barrier.
	counts []int64
	// scratch backs RandomAlive's low-liveness fallback filter.
	scratch []int
}

// Engine returns the engine driving this phase.
func (c *Ctx) Engine() *Engine { return c.e }

// Slot returns the slot being processed.
func (c *Ctx) Slot() int { return c.slot }

// Node returns the node occupying the slot being processed.
func (c *Ctx) Node() *Node { return &c.e.nodes[c.slot] }

// Round returns the index of the round currently executing.
func (c *Ctx) Round() int { return c.e.round }

// Rand returns the slot's random stream for this (protocol, phase). Every
// random decision of an exchange — partner choice, payload sampling, loss —
// must draw from here so the round is independent of worker scheduling.
func (c *Ctx) Rand() *Stream { return &c.rng }

// Pad returns the worker's scratch pad.
func (c *Ctx) Pad() *Pad { return &c.pad }

// Count adds bytes to the running protocol's bandwidth for this round,
// accumulated in the worker's meter shard and folded into the shared Meter
// at the round barrier. This is the only way phase code may meter: the
// shared Meter itself is not safe to touch from a parallel phase.
func (c *Ctx) Count(bytes int) { c.counts[c.pi] += int64(bytes) }

// Route sends the slot's exchange of this round to target: the engine's
// Deliver phase puts the slot on target's receive list. Call from Plan of
// a protocol that implements PlanCodec; a later Route in the same Plan
// replaces the earlier one. Safe from the parallel Plan phase: a sender
// writes only its own lane.
func (c *Ctx) Route(target int) { c.box.planned[c.slot] = int32(target) }

// Target returns the slot this slot's exchange was routed to this round,
// or -1 when it routed none.
func (c *Ctx) Target() int { return int(c.box.planned[c.slot]) }

// FirstSender returns the first slot whose exchange was routed to this
// slot this round, or -1 when none was. Senders come in ascending slot
// order; walk them with NextSender. Call from Absorb.
func (c *Ctx) FirstSender() int { return int(c.box.head[c.slot]) }

// NextSender returns the sender after the given one on this slot's
// receive list, or -1 at the end.
func (c *Ctx) NextSender(sender int) int { return int(c.box.next[sender]) }

// Deliver decides whether one request/response exchange from the current
// slot to the given slot goes through: the partition (if any) is consulted
// first, then the loss rate, drawing from the slot's stream.
func (c *Ctx) Deliver(to int) bool {
	if !c.e.SameSide(c.slot, to) {
		return false
	}
	if c.e.lossRate <= 0 {
		return true
	}
	return c.rng.Float64() >= c.e.lossRate
}

// RandomAlive returns a uniformly random alive node other than exclude
// (pass a negative slot to exclude nothing), or nil if none exists — the
// phase-context twin of Engine.RandomAlive, drawing from the slot's stream.
func (c *Ctx) RandomAlive(exclude int) *Node {
	return randomAlive(c.e.nodes, exclude, &c.rng, &c.scratch)
}

// intner is the one draw randomAlive makes: *rand.Rand for the engine's
// serial source, *Stream for a phase's per-slot stream.
type intner interface{ Intn(n int) int }

// randomAlive draws up to 16 uniform slots and returns the first alive one
// other than exclude; when all 16 miss (a mostly dead population) it picks
// uniformly among the alive slots, ascending, minus exclude, collected into
// scratch. The fallback scans the node table directly rather than going
// through the engine's alive-slot cache: a lazy cache rebuild would mutate
// the very backing array other workers' shards alias if a hook killed a
// node mid-round.
func randomAlive(nodes []Node, exclude int, rng intner, scratch *[]int) *Node {
	if len(nodes) == 0 {
		return nil
	}
	for tries := 0; tries < 16; tries++ {
		n := &nodes[rng.Intn(len(nodes))]
		if n.Alive && n.Slot != exclude {
			return n
		}
	}
	candidates := (*scratch)[:0]
	for i := range nodes {
		if nodes[i].Alive && i != exclude {
			candidates = append(candidates, i)
		}
	}
	*scratch = candidates
	if len(candidates) == 0 {
		return nil
	}
	return &nodes[candidates[rng.Intn(len(candidates))]]
}

// Rand exposes the engine's serial random source. It drives everything that
// happens *between* rounds — bootstrap, churn, failure and partition
// injection — and must not be touched from the parallel phases (phase code
// draws from Ctx.Rand instead).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Round returns the index of the round currently executing (or, between
// rounds, the number of completed rounds).
func (e *Engine) Round() int { return e.round }

// Meter returns the bandwidth meter.
func (e *Engine) Meter() *Meter { return e.meter }

// SetLossRate configures the probability that any single gossip exchange
// fails in transit (request lost). Used by failure-injection tests.
func (e *Engine) SetLossRate(p float64) { e.lossRate = p }

// LossRate returns the configured message loss probability.
func (e *Engine) LossRate() float64 { return e.lossRate }

// SetWorkers sets how many workers shard the parallel phases of a round.
// n <= 0 selects GOMAXPROCS. The result of a run is byte-identical for
// every worker count; workers only change how fast a round executes.
// SetWorkers may be called between rounds at any time.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// Workers returns the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Register appends a protocol to the stack. Protocols step in registration
// order within each round, mirroring a PeerSim cycle-driven protocol stack
// (every protocol's phases complete before the next protocol starts). A
// protocol that implements PlanCodec routes exchanges, and the engine keeps
// a route table for it. Register must be called before AddNodes.
func (e *Engine) Register(p Protocol) int {
	e.protocols = append(e.protocols, p)
	var box *inbox
	if _, ok := p.(PlanCodec); ok {
		box = &inbox{}
	}
	e.inboxes = append(e.inboxes, box)
	e.meter.AddProtocol(p.Name())
	return len(e.protocols) - 1
}

// SetRoundEnd sets the func the round barrier calls after every completed
// round, replacing any earlier one. It is the engine owner's one place to
// act between rounds (churn, measurement, events) and to state its stop
// rule: returning stop=true ends Run early.
func (e *Engine) SetRoundEnd(f func(e *Engine) (stop bool)) { e.roundEnd = f }

// AddNodes creates n fresh nodes, returning their slots. The caller is
// expected to assign profiles (via the allocator) before initializing
// protocols with InitNode or Bootstrap. Growing the dense node table may
// move it: node pointers obtained before AddNodes are stale after.
func (e *Engine) AddNodes(n int) []int {
	slots := make([]int, 0, n)
	for i := 0; i < n; i++ {
		slot := len(e.nodes)
		e.nodes = append(e.nodes, Node{
			Slot:   slot,
			ID:     e.nextID,
			Alive:  true,
			Joined: e.round,
		})
		e.nextID++
		e.slotOfID = append(e.slotOfID, slot)
		slots = append(slots, slot)
	}
	e.sizeSlots()
	e.aliveOK = false
	return slots
}

// sizeSlots sizes every protocol's per-slot tables to the node table and
// extends every route table to cover it.
func (e *Engine) sizeSlots() {
	for pi, p := range e.protocols {
		p.Resize(len(e.nodes))
		if b := e.inboxes[pi]; b != nil {
			b.grow(len(e.nodes))
		}
	}
}

// InitNode runs every protocol's InitNode for the given slot. Call after
// the node's profile is assigned.
func (e *Engine) InitNode(slot int) {
	for _, p := range e.protocols {
		p.InitNode(e, slot)
	}
}

// Node returns the node occupying slot. The pointer aims into the dense
// node table and is stable until the next AddNodes.
func (e *Engine) Node(slot int) *Node { return &e.nodes[slot] }

// Size returns the total number of slots ever allocated (alive + dead).
func (e *Engine) Size() int { return len(e.nodes) }

// Lookup resolves a node ID to its node, or nil if unknown. IDs are dense
// and monotonically assigned, so this is a bounds check plus two slice
// loads — no hashing.
func (e *Engine) Lookup(id view.NodeID) *Node {
	if id < 0 || int64(id) >= int64(len(e.slotOfID)) {
		return nil
	}
	return &e.nodes[e.slotOfID[id]]
}

// alive returns the cached alive-slot list (slot order), rebuilding it into
// the reused backing array if a liveness mutation invalidated it. The
// returned slice is engine-owned scratch: callers must not retain or mutate
// it, and any Kill/AddNodes invalidates it.
func (e *Engine) alive() []int {
	if !e.aliveOK {
		e.aliveSlots = e.aliveSlots[:0]
		for i := range e.nodes {
			if e.nodes[i].Alive {
				e.aliveSlots = append(e.aliveSlots, i)
			}
		}
		e.aliveOK = true
	}
	return e.aliveSlots
}

// AliveSlots returns the slots of all alive nodes in slot order. The slice
// is the caller's to keep (callers iterate it while killing nodes); use
// AliveSlotsAppend with a reused buffer to avoid the copy.
func (e *Engine) AliveSlots() []int {
	alive := e.alive()
	out := make([]int, len(alive))
	copy(out, alive)
	return out
}

// AliveSlotsAppend appends the slots of all alive nodes, in slot order, to
// dst and returns the extended slice — the allocation-free AliveSlots.
func (e *Engine) AliveSlotsAppend(dst []int) []int {
	return append(dst, e.alive()...)
}

// AliveCount returns the number of alive nodes.
func (e *Engine) AliveCount() int { return len(e.alive()) }

// RandomAlive returns a uniformly random alive node other than exclude
// (pass a negative slot to exclude nothing), or nil if none exists. It is
// O(1) in the common case and falls back to a scan when the population is
// mostly dead. It draws from the engine's serial source: use it for setup
// and inter-round injection only, never from a parallel phase (which has
// Ctx.RandomAlive).
func (e *Engine) RandomAlive(exclude int) *Node {
	return randomAlive(e.nodes, exclude, e.rng, &e.randScratch)
}

// Kill marks the node at slot dead. Dead nodes stop stepping and refuse
// exchanges; their descriptors decay out of peers' views.
func (e *Engine) Kill(slot int) {
	e.nodes[slot].Alive = false
	e.aliveOK = false
}

// KillFraction kills ceil(f × alive) uniformly random alive nodes and
// returns their slots. Used for catastrophic-failure experiments.
func (e *Engine) KillFraction(f float64) []int {
	alive := e.AliveSlots()
	n := int(f*float64(len(alive)) + 0.5)
	if n <= 0 {
		return nil
	}
	if n > len(alive) {
		n = len(alive)
	}
	e.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	killed := alive[:n]
	for _, s := range killed {
		e.Kill(s)
	}
	return killed
}

// Partition splits the alive population into the given number of groups;
// exchanges between nodes of different groups are dropped until Heal.
// Group assignment is balanced and drawn from the engine's random source,
// so partitions are as deterministic as everything else. Fewer than two
// groups heals instead.
func (e *Engine) Partition(groups int) {
	if groups < 2 {
		e.Heal()
		return
	}
	e.partition = make([]int, len(e.nodes))
	for i := range e.partition {
		e.partition[i] = -1
	}
	alive := e.AliveSlots()
	e.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for i, slot := range alive {
		e.partition[slot] = i % groups
	}
}

// Heal removes a network partition: every pair of nodes can exchange again.
func (e *Engine) Heal() { e.partition = nil }

// SameSide reports whether two slots can reach each other under the current
// partition. Nodes that joined after the split carry no group and are
// reachable from everywhere (they model fresh nodes with full connectivity).
func (e *Engine) SameSide(a, b int) bool {
	if e.partition == nil {
		return true
	}
	if a >= len(e.partition) || b >= len(e.partition) {
		return true
	}
	ga, gb := e.partition[a], e.partition[b]
	return ga < 0 || gb < 0 || ga == gb
}

// Phase identifiers, used to salt the per-node streams so a protocol's
// phases draw from independent streams. The engine-driven Deliver merge
// draws no randomness, so it needs no salt — the constants (and with them
// every stream of every existing run) are unchanged from the serial-Deliver
// engine.
const (
	phaseRefresh = iota
	phasePlan
	phaseAbsorb
	phaseCount
)

// phaseJob is one shard of a parallel phase, handed to a pool worker. The
// job carries everything the worker needs so parked workers hold no engine
// reference (which would keep a finalized engine alive forever). A job is
// either a phase shard (p non-nil: run alive[lo:hi] through phase of
// protocol pi, with box as its route table) or a Deliver merge shard (p
// nil: link the planned exchanges in box of the alive senders whose target
// falls in [lo, hi)).
type phaseJob struct {
	ctx   *Ctx
	p     Protocol
	pi    int
	box   *inbox
	salt  uint64
	phase int

	alive  []int
	lo, hi int

	done chan<- struct{}
}

// run executes the job's shard on the calling goroutine.
func (j *phaseJob) run() {
	if j.p == nil {
		j.box.merge(j.ctx.e.nodes, j.alive, j.lo, j.hi)
		return
	}
	j.ctx.pi, j.ctx.box = j.pi, j.box
	runShard(j.ctx, j.p, j.salt, j.phase, j.alive[j.lo:j.hi])
}

// poolWorker executes phase and merge shards until the jobs channel closes
// (when the owning engine is garbage-collected).
func poolWorker(jobs <-chan phaseJob) {
	for j := range jobs {
		j.run()
		j.done <- struct{}{}
	}
}

// runShard processes one contiguous run of alive slots for one phase,
// deriving each slot's stream from (seed, node, round, protocol, phase) —
// the counter-based discipline that makes sharding invisible to the result.
func runShard(ctx *Ctx, p Protocol, salt uint64, phase int, slots []int) {
	e := ctx.e
	for _, slot := range slots {
		n := &e.nodes[slot]
		if !n.Alive {
			// A node can die mid-round (not in the base model, but hooks
			// may kill it); re-check before each phase.
			continue
		}
		ctx.slot = slot
		ctx.rng = NewStream(e.seed, n.ID, e.round, salt)
		switch phase {
		case phaseRefresh:
			if ctx.box != nil {
				ctx.box.reset(slot)
			}
			p.Refresh(ctx)
		case phasePlan:
			p.Plan(ctx)
		default:
			p.Absorb(ctx)
		}
	}
}

// minShardSlots bounds how finely a phase is sharded: below this many slots
// per worker the dispatch overhead outweighs the parallelism. Purely a
// performance knob — sharding never changes results.
const minShardSlots = 64

// ensureCtxs grows the per-worker context table to the configured worker
// count (preserving the scratch pads already grown) and sizes every
// worker's meter shard to the protocol count. Called between rounds only,
// so no phase holds a context pointer across the reallocation, and every
// shard is folded (zero) when resized.
func (e *Engine) ensureCtxs() {
	if len(e.ctxs) < e.workers {
		ctxs := make([]Ctx, e.workers)
		copy(ctxs, e.ctxs)
		e.ctxs = ctxs
		for i := range e.ctxs {
			e.ctxs[i].e = e
		}
	}
	np := len(e.meter.current)
	for i := range e.ctxs {
		if len(e.ctxs[i].counts) < np {
			e.ctxs[i].counts = make([]int64, np)
		}
	}
}

// foldMeters folds every worker's meter shard into the shared Meter — the
// serial tail of the round barrier, O(workers × protocols). Folding is
// int64 addition, so the round's totals are exact and independent of which
// worker metered which slot.
func (e *Engine) foldMeters() {
	for i := range e.ctxs {
		counts := e.ctxs[i].counts
		for p, v := range counts {
			if v != 0 {
				e.meter.current[p] += v
				counts[p] = 0
			}
		}
	}
}

// ensurePool tops the worker pool up to the configured worker count. The
// goroutines park on the jobs channel between phases; a finalizer closes
// the channel once the engine is unreachable, so abandoned engines (the
// evaluation harness creates thousands) do not leak their pools.
func (e *Engine) ensurePool() {
	if e.jobs == nil {
		e.jobs = make(chan phaseJob, 64)
		e.done = make(chan struct{}, 64)
		e.closer = &poolCloser{jobs: e.jobs}
		runtime.SetFinalizer(e.closer, func(c *poolCloser) { close(c.jobs) })
	}
	for ; e.poolSize < e.workers; e.poolSize++ {
		go poolWorker(e.jobs)
	}
}

// runPhase executes one parallel phase of protocol pi over the given
// slots, sharded into contiguous runs of the slot list. The phase's
// streams are salted by (protocol, phase).
func (e *Engine) runPhase(pi, phase int, slots []int) {
	salt := uint64(pi)*phaseCount + uint64(phase)
	e.fanOut(phaseJob{p: e.protocols[pi], pi: pi, box: e.inboxes[pi], salt: salt, phase: phase, alive: slots}, len(slots))
}

// deliver runs protocol pi's Deliver phase: merge the exchanges routed
// into its inbox into per-target receive lists, one worker per contiguous
// destination shard. Every worker scans senders in ascending slot order,
// so each target's list is identical to the serial slot-order delivery of
// the pre-sharded engine — at any worker count. Protocols that route
// nothing (pure-lookup layers) skip the phase entirely.
func (e *Engine) deliver(pi int, alive []int) {
	if box := e.inboxes[pi]; box != nil {
		e.fanOut(phaseJob{box: box, alive: alive}, len(e.nodes))
	}
}

// fanOut splits [0, n) into contiguous shards, one per worker, and runs
// job over each: serially in-place for a single worker (or a population
// too small to shard), otherwise over the pool, returning once every
// shard is done. A phase job shards the alive list (n = len(alive)), a
// merge job the slot space (n = Size()); either way the worker count is
// capped by the alive population.
func (e *Engine) fanOut(job phaseJob, n int) {
	w := e.workers
	if max := len(job.alive) / minShardSlots; w > max {
		// Floor division: every dispatched shard covers at least
		// minShardSlots alive slots' worth of work (max 0 collapses to
		// the serial path).
		w = max
	}
	if w <= 1 {
		job.ctx, job.lo, job.hi = &e.ctxs[0], 0, n
		job.run()
		return
	}
	e.ensurePool()
	job.done = e.done
	chunk := (n + w - 1) / w
	sent := 0
	for lo := 0; lo < n; lo += chunk {
		job.ctx, job.lo, job.hi = &e.ctxs[sent], lo, min(lo+chunk, n)
		e.jobs <- job
		sent++
	}
	for ; sent > 0; sent-- {
		<-e.done
	}
}

// RunRound executes one full round: for each protocol in registration
// order, the parallel Refresh and Plan phases, the parallel per-destination
// Deliver merge, and the parallel Absorb phase; then the round barrier
// folds the per-worker meter shards, snapshots the round's bandwidth, and
// calls the round-end hook (SetRoundEnd). The result is byte-identical for
// every worker count. It reports whether the hook requested a stop.
func (e *Engine) RunRound() (stop bool) {
	stop, _ = e.RunRoundSharded(0, len(e.nodes), nil)
	return stop
}

// Run executes up to maxRounds rounds, stopping early if the round-end
// hook asks to. It returns the number of rounds executed in this call.
func (e *Engine) Run(maxRounds int) (int, error) {
	return e.RunContext(context.Background(), maxRounds)
}

// RunContext is Run with cooperative cancellation: the context is checked
// at every round boundary (never mid-round, so the engine is always left in
// a snapshot-safe state), and a cancelled run returns the rounds it actually
// executed together with ctx.Err(). This is what lets a serving layer pause
// or stop a job cleanly, and what lets the CLI turn SIGINT into a final
// checkpoint instead of dying mid-round.
func (e *Engine) RunContext(ctx context.Context, maxRounds int) (int, error) {
	if len(e.protocols) == 0 {
		return 0, ErrNoProtocols
	}
	for i := 0; i < maxRounds; i++ {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		if e.RunRound() {
			return i + 1, nil
		}
	}
	return maxRounds, nil
}

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{round=%d nodes=%d alive=%d protocols=%d workers=%d}",
		e.round, len(e.nodes), e.AliveCount(), len(e.protocols), e.workers)
}
