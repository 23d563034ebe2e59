package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sosf/internal/snap"
	"sosf/internal/view"
)

// countingProtocol records how many times each slot stepped (one step ==
// one Plan phase call; the counter storage is sized by Resize and each
// bump writes only the slot's own cell, so the protocol stays race-free
// at any worker count).
type countingProtocol struct {
	name  string
	inits []int
	steps []int
}

func (c *countingProtocol) Name() string { return c.name }

func (c *countingProtocol) Resize(n int) {
	for len(c.inits) < n {
		c.inits = append(c.inits, 0)
		c.steps = append(c.steps, 0)
	}
	c.inits, c.steps = c.inits[:n], c.steps[:n]
}

func (c *countingProtocol) InitNode(e *Engine, slot int) { c.inits[slot]++ }

func (c *countingProtocol) Refresh(ctx *Ctx) {}

func (c *countingProtocol) Plan(ctx *Ctx) { c.steps[ctx.Slot()]++ }

func (c *countingProtocol) Absorb(ctx *Ctx) {}

func newTestEngine(t *testing.T, n int) (*Engine, *countingProtocol) {
	t.Helper()
	e := New(42)
	p := &countingProtocol{name: "count"}
	e.Register(p)
	slots := e.AddNodes(n)
	for _, s := range slots {
		e.InitNode(s)
	}
	return e, p
}

func TestRunStepsEveryAliveNode(t *testing.T) {
	e, p := newTestEngine(t, 10)
	rounds, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rounds)
	}
	for slot, n := range p.steps {
		if n != 3 {
			t.Fatalf("slot %d stepped %d times, want 3", slot, n)
		}
	}
}

func TestRunWithoutProtocolsFails(t *testing.T) {
	e := New(1)
	if _, err := e.Run(1); err == nil {
		t.Fatal("Run on an empty stack should fail")
	}
}

func TestDeadNodesDoNotStep(t *testing.T) {
	e, p := newTestEngine(t, 4)
	e.Kill(2)
	if _, err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if p.steps[2] != 0 {
		t.Fatalf("dead slot stepped %d times, want 0", p.steps[2])
	}
	if e.AliveCount() != 3 {
		t.Fatalf("AliveCount = %d, want 3", e.AliveCount())
	}
}

func TestObserverStopsRun(t *testing.T) {
	e, _ := newTestEngine(t, 4)
	e.SetRoundEnd(func(e *Engine) bool { return e.Round() >= 2 })
	rounds, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d, want early stop after 2", rounds)
	}
}

func TestNodeIDsNeverReused(t *testing.T) {
	e, _ := newTestEngine(t, 3)
	e.Kill(0)
	slots := e.AddNodes(2)
	ids := map[view.NodeID]bool{}
	for _, n := range []int{0, 1, 2, slots[0], slots[1]} {
		id := e.Node(n).ID
		if ids[id] {
			t.Fatalf("node ID %d reused", id)
		}
		ids[id] = true
	}
}

func TestLookup(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	id := e.Node(1).ID
	if n := e.Lookup(id); n == nil || n.Slot != 1 {
		t.Fatalf("Lookup(%d) = %v, want slot 1", id, n)
	}
	if e.Lookup(view.NodeID(999)) != nil {
		t.Fatal("Lookup of unknown ID should return nil")
	}
	e.Kill(1)
	if n := e.Lookup(id); n == nil || n.Alive {
		t.Fatalf("Lookup(%d) after Kill = %v, want the dead node", id, n)
	}
}

func TestKillFraction(t *testing.T) {
	e, _ := newTestEngine(t, 100)
	killed := e.KillFraction(0.3)
	if len(killed) != 30 {
		t.Fatalf("killed %d nodes, want 30", len(killed))
	}
	if e.AliveCount() != 70 {
		t.Fatalf("AliveCount = %d, want 70", e.AliveCount())
	}
	if got := e.KillFraction(0); got != nil {
		t.Fatalf("KillFraction(0) = %v, want nil", got)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []int {
		e := New(seed)
		p := &countingProtocol{name: "count"}
		e.Register(p)
		for _, s := range e.AddNodes(50) {
			e.InitNode(s)
		}
		var order []int
		e.SetRoundEnd(func(e *Engine) bool {
			order = append(order, e.KillFraction(0.02)...)
			return false
		})
		if _, err := e.Run(20); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := trace(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same && len(a) > 0 {
		t.Fatal("different seeds should (overwhelmingly) produce different traces")
	}
}

func TestMeterHistory(t *testing.T) {
	m := NewMeter()
	a := m.AddProtocol("a")
	b := m.AddProtocol("b")
	m.current[a] += 10
	m.current[b] += 5
	m.current[a] += 1
	m.EndRound()
	m.current[b] += 7
	m.EndRound()
	if m.Rounds() != 2 {
		t.Fatalf("Rounds = %d, want 2", m.Rounds())
	}
	if got := m.RoundTotal(0, a); got != 11 {
		t.Fatalf("round 0 proto a = %d, want 11", got)
	}
	if got := m.RoundSum(0); got != 16 {
		t.Fatalf("round 0 sum = %d, want 16", got)
	}
	if got := m.RoundSum(1, a); got != 0 {
		t.Fatalf("round 1 proto a = %d, want 0", got)
	}
	if got := m.RoundSum(1); got != 7 {
		t.Fatalf("round 1 sum = %d, want 7", got)
	}
}

// meterProbe counts a fixed number of bytes for every slot in each of its
// Refresh, Plan and Absorb phases.
type meterProbe struct{ bytes int }

func (p *meterProbe) Name() string                 { return fmt.Sprintf("meter%d", p.bytes) }
func (p *meterProbe) Resize(n int)                 {}
func (p *meterProbe) InitNode(e *Engine, slot int) {}
func (p *meterProbe) Refresh(ctx *Ctx)             { ctx.Count(p.bytes) }
func (p *meterProbe) Plan(ctx *Ctx)                { ctx.Count(p.bytes) }
func (p *meterProbe) Absorb(ctx *Ctx)              { ctx.Count(p.bytes) }

// TestCountMetersRunningProtocol registers two probes that count
// different amounts: at any worker count, each meter column must hold
// exactly its own protocol's bytes, because Count meters the protocol
// whose phase is running.
func TestCountMetersRunningProtocol(t *testing.T) {
	const size, rounds = 512, 3
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(9)
			e.SetWorkers(workers)
			probes := []*meterProbe{{bytes: 3}, {bytes: 1000}}
			for _, p := range probes {
				e.Register(p)
			}
			for _, s := range e.AddNodes(size) {
				e.InitNode(s)
			}
			if _, err := e.Run(rounds); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				for pi, p := range probes {
					if got, want := e.Meter().RoundTotal(r, pi), int64(3*p.bytes*size); got != want {
						t.Fatalf("round %d: %s metered %d bytes, want %d", r, p.Name(), got, want)
					}
				}
			}
		})
	}
}

// TestAbandonedEnginePoolExits drops a parallel engine after a round: its
// pool goroutines must exit and its memory be collected. The worker
// contexts point back at the engine, so a finalizer on the engine itself
// never ran and every abandoned engine kept its pool and its nodes.
func TestAbandonedEnginePoolExits(t *testing.T) {
	settle := func() {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	settle()
	base := runtime.NumGoroutine()
	func() {
		e := New(9)
		e.SetWorkers(4)
		e.Register(&meterProbe{bytes: 1})
		for _, s := range e.AddNodes(512) {
			e.InitNode(s)
		}
		if _, err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n < base+4 {
			t.Fatalf("%d goroutines with a 4-worker pool running, want >= %d", n, base+4)
		}
	}()
	for i := 0; i < 100; i++ {
		settle()
		if runtime.NumGoroutine() <= base {
			return
		}
	}
	t.Fatalf("%d goroutines after the engine was dropped, want <= %d", runtime.NumGoroutine(), base)
}

func TestWireSizes(t *testing.T) {
	if got := DescriptorPayload(0); got != HeaderBytes {
		t.Fatalf("empty payload = %d, want header only (%d)", got, HeaderBytes)
	}
	if got := DescriptorPayload(3); got != HeaderBytes+3*DescriptorBytes {
		t.Fatalf("DescriptorPayload(3) = %d", got)
	}
	if got := PortRecordPayload(2); got != HeaderBytes+2*PortRecordBytes {
		t.Fatalf("PortRecordPayload(2) = %d", got)
	}
	if got := PortQueryPayload(); got != HeaderBytes+PortQueryBytes {
		t.Fatalf("PortQueryPayload() = %d", got)
	}
}

// slotCtx returns a phase context for slot, drawing from the slot's
// stream as a Plan would.
func slotCtx(e *Engine, slot int) *Ctx {
	return &Ctx{e: e, slot: slot, rng: NewStream(e.seed, e.nodes[slot].ID, e.round, phasePlan)}
}

func TestDeliverExchangeLoss(t *testing.T) {
	e := New(3)
	e.AddNodes(2)
	e.SetLossRate(1.0)
	if slotCtx(e, 0).Deliver(1) {
		t.Fatal("loss rate 1.0 must drop every exchange")
	}
	e.SetLossRate(0)
	if !slotCtx(e, 0).Deliver(1) {
		t.Fatal("loss rate 0 must deliver every exchange")
	}
}

func TestPartitionBlocksCrossGroupExchanges(t *testing.T) {
	e := New(11)
	e.AddNodes(10)
	e.Partition(2)
	if e.partition == nil {
		t.Fatal("no partition after Partition(2)")
	}
	sides := make(map[bool]int)
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			same := e.SameSide(a, b)
			sides[same]++
			if slotCtx(e, a).Deliver(b) != same {
				t.Fatalf("Deliver(%d -> %d) disagrees with SameSide", a, b)
			}
		}
	}
	if sides[true] == 0 || sides[false] == 0 {
		t.Fatalf("partition should split pairs, got %v", sides)
	}
	// Nodes that join after the split carry no group: reachable everywhere.
	fresh := e.AddNodes(1)[0]
	for a := 0; a < 10; a++ {
		if !e.SameSide(a, fresh) {
			t.Fatal("post-split joiner must be unrestricted")
		}
	}
	e.Heal()
	if e.partition != nil {
		t.Fatal("partition left after Heal")
	}
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			if !e.SameSide(a, b) {
				t.Fatal("healed network must be whole")
			}
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	e := New(7)
	e.AddNodes(90)
	e.Partition(3)
	counts := make(map[int]int)
	// Count group sizes via SameSide equivalence classes against three
	// representatives.
	reps := []int{}
	for s := 0; s < 90 && len(reps) < 3; s++ {
		isNew := true
		for _, r := range reps {
			if e.SameSide(r, s) {
				isNew = false
				break
			}
		}
		if isNew {
			reps = append(reps, s)
		}
	}
	if len(reps) != 3 {
		t.Fatalf("found %d groups, want 3", len(reps))
	}
	for s := 0; s < 90; s++ {
		for _, r := range reps {
			if e.SameSide(r, s) {
				counts[r]++
			}
		}
	}
	for r, n := range counts {
		if n != 30 {
			t.Fatalf("group of rep %d has %d members, want 30", r, n)
		}
	}
}

func TestPartitionFewerThanTwoGroupsHeals(t *testing.T) {
	e := New(3)
	e.AddNodes(4)
	e.Partition(2)
	e.Partition(1)
	if e.partition != nil {
		t.Fatal("Partition(1) must heal")
	}
}

// TestShardedDeliverAllocationFree pins the engine's own round loop — the
// parallel phases, the per-destination-shard Deliver merge, and the
// round-barrier meter fold — at zero heap allocations per round, at every
// worker count the full-stack guards use. The root-package alloc tests
// cover the protocols; this one isolates the engine so a regression in the
// sharding machinery itself (a lane buffer growing per round, a fold
// allocating per worker) is attributed to the right layer.
func TestShardedDeliverAllocationFree(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(77)
			e.SetWorkers(workers)
			p := &probeProtocol{}
			e.Register(p)
			for _, s := range e.AddNodes(2000) {
				e.InitNode(s)
			}
			const measured = 10
			// Warm rounds surface every lazy structure (worker pool,
			// phase contexts, inbox lanes); Reserve pre-grows the meter
			// history the measured rounds will append to.
			e.Meter().Reserve(5 + 2*measured)
			if _, err := e.Run(5); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(measured, func() {
				if _, err := e.Run(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("engine round allocated %.1f times per round; the sharded Deliver path must stay allocation-free", allocs)
			}
		})
	}
}

// flipRouter routes every slot's exchange to its right neighbour in even
// rounds and routes nothing in odd rounds, recording what each slot's
// Absorb sees: its own lane and its sender list.
type flipRouter struct {
	targets []int
	senders [][]int
}

func (p *flipRouter) Name() string { return "flip" }
func (p *flipRouter) Resize(n int) {
	for len(p.targets) < n {
		p.targets = append(p.targets, 0)
		p.senders = append(p.senders, nil)
	}
	p.targets, p.senders = p.targets[:n], p.senders[:n]
}
func (p *flipRouter) InitNode(e *Engine, slot int) {}
func (p *flipRouter) Refresh(ctx *Ctx)             {}
func (p *flipRouter) Plan(ctx *Ctx) {
	if ctx.Round()%2 == 0 {
		ctx.Route((ctx.Slot() + 1) % ctx.Engine().Size())
	}
}
func (p *flipRouter) Absorb(ctx *Ctx) {
	slot := ctx.Slot()
	p.targets[slot] = ctx.Target()
	p.senders[slot] = p.senders[slot][:0]
	// The walk is capped so a list corrupted into a cycle fails the test
	// instead of growing without bound.
	for s := ctx.FirstSender(); s >= 0 && len(p.senders[slot]) <= ctx.Engine().Size(); s = ctx.NextSender(s) {
		p.senders[slot] = append(p.senders[slot], s)
	}
}
func (p *flipRouter) EncodePlan(w *snap.Writer, slot int)       {}
func (p *flipRouter) DecodePlan(r *snap.Reader, slot int) error { return nil }

// TestEngineResetsRoutesEachRound routes in one round and not in the next:
// the second round must see no lane and no sender anywhere, which holds
// only if the engine clears every slot's lane and receive list before the
// protocol's Plan.
func TestEngineResetsRoutesEachRound(t *testing.T) {
	const size = 200
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := New(5)
			e.SetWorkers(workers)
			p := &flipRouter{}
			e.Register(p)
			for _, s := range e.AddNodes(size) {
				e.InitNode(s)
			}
			e.RunRound()
			for slot := 0; slot < size; slot++ {
				left := (slot + size - 1) % size
				if p.targets[slot] != (slot+1)%size || len(p.senders[slot]) != 1 || p.senders[slot][0] != left {
					t.Fatalf("routing round: slot %d saw lane %d senders %v, want lane %d senders [%d]",
						slot, p.targets[slot], p.senders[slot], (slot+1)%size, left)
				}
			}
			e.RunRound()
			for slot := 0; slot < size; slot++ {
				if p.targets[slot] != -1 || len(p.senders[slot]) != 0 {
					t.Fatalf("silent round: slot %d saw lane %d senders %v, want none", slot, p.targets[slot], p.senders[slot])
				}
			}
		})
	}
}
