package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/spec"
	"sosf/internal/view"
)

// ringsTopo builds a k-ring topology where consecutive rings are linked
// head-to-tail (the paper's ring-of-rings).
func ringsTopo(k int) *spec.Topology {
	t := &spec.Topology{Name: "ring-of-rings"}
	for i := 0; i < k; i++ {
		t.Components = append(t.Components, spec.Component{
			Name: compName(i), Shape: "ring", Weight: 1,
			Ports: []string{"head", "tail"},
		})
	}
	for i := 0; i < k; i++ {
		t.Links = append(t.Links, spec.Link{
			A: spec.PortRef{Component: compName(i), Port: "head"},
			B: spec.PortRef{Component: compName((i + 1) % k), Port: "tail"},
		})
	}
	return t
}

func compName(i int) string {
	return "r" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func newPopulation(t *testing.T, n int, seed int64) *sim.Engine {
	t.Helper()
	e := sim.New(seed)
	e.Register(&nopProtocol{})
	for _, slot := range e.AddNodes(n) {
		e.Node(slot).Profile.Key = e.Rand().Uint64()
	}
	return e
}

type nopProtocol struct{}

func (*nopProtocol) Name() string                        { return "nop" }
func (*nopProtocol) Resize(n int)                        {}
func (*nopProtocol) InitNode(e *sim.Engine, s int)       {}
func (*nopProtocol) Refresh(ctx *sim.Ctx)                {}
func (*nopProtocol) Plan(ctx *sim.Ctx)                   {}
func (*nopProtocol) Absorb(ctx *sim.Ctx)                 {}
func (*nopProtocol) SnapshotSlot(*snap.Writer, int)      {}
func (*nopProtocol) RestoreSlot(*snap.Reader, int) error { return nil }

func TestAllocatorRejectsInvalidTopology(t *testing.T) {
	if _, err := NewAllocator(&spec.Topology{}); err == nil {
		t.Fatal("empty topology should be rejected")
	}
}

func TestAssignAllDenseAndProportional(t *testing.T) {
	topo := ringsTopo(4)
	topo.Components[0].Weight = 3 // 3/6 of nodes
	a, err := NewAllocator(topo)
	if err != nil {
		t.Fatal(err)
	}
	e := newPopulation(t, 1200, 1)
	a.AssignAll(e)

	counts := make([]int, 4)
	maxIdx := make([]int32, 4)
	for _, slot := range e.AliveSlots() {
		p := e.Node(slot).Profile
		counts[p.Comp]++
		if p.Index > maxIdx[p.Comp] {
			maxIdx[p.Comp] = p.Index
		}
		if p.Epoch != 0 {
			t.Fatalf("epoch = %d, want 0", p.Epoch)
		}
	}
	// Component 0 has weight 3 of total 6: expect ~600 of 1200 ±10%.
	if math.Abs(float64(counts[0])-600) > 60 {
		t.Fatalf("weighted component got %d nodes, want ~600", counts[0])
	}
	for c := 1; c < 4; c++ {
		if math.Abs(float64(counts[c])-200) > 60 {
			t.Fatalf("component %d got %d nodes, want ~200", c, counts[c])
		}
	}
	// Indices must be dense 0..size-1.
	for c := 0; c < 4; c++ {
		if int(maxIdx[c]) != counts[c]-1 {
			t.Fatalf("component %d: max index %d for %d members", c, maxIdx[c], counts[c])
		}
	}
	// Sizes stamped into profiles must match.
	for _, slot := range e.AliveSlots() {
		p := e.Node(slot).Profile
		if int(p.Size) != counts[p.Comp] {
			t.Fatalf("profile size %d != component size %d", p.Size, counts[p.Comp])
		}
	}
}

func TestAssignmentDeterministic(t *testing.T) {
	topo := ringsTopo(5)
	a1, _ := NewAllocator(topo)
	a2, _ := NewAllocator(ringsTopo(5))
	e1 := newPopulation(t, 300, 7)
	e2 := newPopulation(t, 300, 7)
	a1.AssignAll(e1)
	a2.AssignAll(e2)
	for slot := 0; slot < 300; slot++ {
		if e1.Node(slot).Profile != e2.Node(slot).Profile {
			t.Fatalf("slot %d: %v != %v", slot, e1.Node(slot).Profile, e2.Node(slot).Profile)
		}
	}
}

// Property: rendezvous assignment is stable — a node's component depends
// only on its key and the component list, not on the rest of the
// population.
func TestComponentOfStable(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(6))
	f := func(key uint64) bool {
		c1 := a.ComponentOf(key)
		c2 := a.ComponentOf(key)
		return c1 == c2 && c1 >= 0 && int(c1) < 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureMovesFewNodes(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(8))
	e := newPopulation(t, 2000, 3)
	a.AssignAll(e)
	before := make([]view.ComponentID, 2000)
	for slot := 0; slot < 2000; slot++ {
		before[slot] = e.Node(slot).Profile.Comp
	}
	// Add a 9th ring: rendezvous hashing should move roughly 1/9 of the
	// population and leave everyone else in place.
	if err := a.Reconfigure(e, ringsTopo(9)); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for slot := 0; slot < 2000; slot++ {
		p := e.Node(slot).Profile
		if p.Epoch != 1 {
			t.Fatalf("epoch not bumped: %d", p.Epoch)
		}
		if p.Comp != before[slot] {
			moved++
		}
	}
	frac := float64(moved) / 2000
	if frac < 0.05 || frac > 0.20 {
		t.Fatalf("reconfiguration moved %.1f%% of nodes, want ~11%%", frac*100)
	}
}

func TestAssignJoinAndLeave(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	e := newPopulation(t, 90, 5)
	a.AssignAll(e)
	slots := e.AddNodes(1)
	n := e.Node(slots[0])
	n.Profile.Key = e.Rand().Uint64()
	a.AssignJoin(n)
	if n.Profile.Comp < 0 || n.Profile.Comp > 2 {
		t.Fatalf("join got component %d", n.Profile.Comp)
	}
	// The join index continues after the densely assigned ones.
	for _, slot := range e.AliveSlots() {
		p := e.Node(slot).Profile
		if p.Comp == n.Profile.Comp && slot != slots[0] && p.Index >= n.Profile.Index {
			t.Fatalf("join index %d not beyond existing %d", n.Profile.Index, p.Index)
		}
	}
	sizeBefore := a.sizes[n.Profile.Comp]
	a.NoteLeave(n)
	if a.sizes[n.Profile.Comp] != sizeBefore-1 {
		t.Fatal("NoteLeave did not decrement size")
	}
}

func TestLinkSides(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	sides := a.Sides()
	if len(sides) != 6 {
		t.Fatalf("sides = %d, want 6 (two per link)", len(sides))
	}
	// Link 0: raa.head <-> rba.tail.
	s0, s1 := sides[0], sides[1]
	if s0.Comp != 0 || s0.Port != 0 || s0.RemoteComp != 1 || s0.RemotePort != 1 {
		t.Fatalf("side 0 = %+v", s0)
	}
	if s1.Comp != 1 || s1.Port != 1 || s1.RemoteComp != 0 || s1.RemotePort != 0 {
		t.Fatalf("side 1 = %+v", s1)
	}
	// Every component of the cycle is endpoint of exactly 2 sides.
	for c := view.ComponentID(0); c < 3; c++ {
		if got := len(a.SidesOf(c)); got != 2 {
			t.Fatalf("component %d has %d sides, want 2", c, got)
		}
	}
	if a.Ports(0) != 2 {
		t.Fatalf("Ports(0) = %d, want 2", a.Ports(0))
	}
	if a.Ports(-1) != 0 || a.SidesOf(-1) != nil {
		t.Fatal("out-of-range component should be empty")
	}
}

func TestHashHelpers(t *testing.T) {
	if fnv1a(1, 2) == fnv1a(2, 1) {
		t.Fatal("fnv1a should be order-sensitive")
	}
	if fnv1a(7) != fnv1a(7) {
		t.Fatal("fnv1a must be deterministic")
	}
	for _, h := range []uint64{0, 1, ^uint64(0), 12345} {
		u := hash01(h)
		if u <= 0 || u >= 1 {
			t.Fatalf("hash01(%d) = %f outside (0,1)", h, u)
		}
	}
	if mix01(1, 2) == mix01(2, 1) {
		t.Fatal("mix01 should be asymmetric (pairwise diversity)")
	}
	if m := mix01(42, 42); m < 0 || m >= 1 {
		t.Fatalf("mix01 out of range: %f", m)
	}
}

// Property: weighted rendezvous respects weights within sampling noise.
func TestRendezvousProportionality(t *testing.T) {
	topo := &spec.Topology{
		Components: []spec.Component{
			{Name: "small", Shape: "ring", Weight: 1},
			{Name: "big", Shape: "ring", Weight: 4},
		},
	}
	a, err := NewAllocator(topo)
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if a.ComponentOf(splitmix64(uint64(i))) == 1 {
			big++
		}
	}
	// Expect 4/5 = 0.8 within a few percent.
	frac := float64(big) / n
	if frac < 0.76 || frac > 0.84 {
		t.Fatalf("big component got %.3f of nodes, want ~0.8", frac)
	}
}

func TestElectionScoreDistinguishesPorts(t *testing.T) {
	a := electionScore(1, 0, 0, 42)
	b := electionScore(1, 1, 0, 42)
	c := electionScore(2, 0, 0, 42)
	d := electionScore(1, 0, 1, 42)
	if a == b || a == c || a == d {
		t.Fatal("election scores must vary with port, component, epoch")
	}
}

// killComp kills n alive members of component c (in slot order) and routes
// the departures through the allocator, mirroring what System.Kill does at
// the serial round barrier minus the flush.
func killComp(t *testing.T, a *Allocator, e *sim.Engine, c view.ComponentID, n int) {
	t.Helper()
	killed := 0
	for _, slot := range e.AliveSlots() {
		if killed == n {
			return
		}
		node := e.Node(slot)
		if node.Profile.Comp != c {
			continue
		}
		a.NoteLeave(node)
		e.Kill(slot)
		killed++
	}
	if killed != n {
		t.Fatalf("killed %d of %d requested in component %d", killed, n, c)
	}
}

// oracleRanks computes the dense position every alive member of c holds
// when survivors are ranked by (Index, ID) — the ordering the oracle uses
// to pick target-shape members.
func oracleRanks(e *sim.Engine, c view.ComponentID) map[int]int32 {
	var ms []*sim.Node
	for _, slot := range e.AliveSlots() {
		if n := e.Node(slot); n.Profile.Comp == c {
			ms = append(ms, n)
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Profile.Index != ms[j].Profile.Index {
			return ms[i].Profile.Index < ms[j].Profile.Index
		}
		return ms[i].ID < ms[j].ID
	})
	out := make(map[int]int32, len(ms))
	for i, n := range ms {
		out[n.Slot] = int32(i)
	}
	return out
}

// TestDenseMatchesOracleRanks is the tentpole's correctness core: after
// any number of unreplaced deaths, Dense must translate every survivor's
// sparse index to exactly the dense position the oracle assigns it.
func TestDenseMatchesOracleRanks(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	e := newPopulation(t, 90, 7)
	a.AssignAll(e)
	const c = view.ComponentID(1)
	for kills := 0; kills < 20; kills++ {
		want := oracleRanks(e, c)
		for slot, rank := range want {
			p := a.Dense(e.Node(slot).Profile)
			if p.Index != rank {
				t.Fatalf("after %d kills: slot %d dense index = %d, oracle rank = %d", kills, slot, p.Index, rank)
			}
			if int(p.Size) != len(want) {
				t.Fatalf("after %d kills: slot %d dense size = %d, alive = %d", kills, slot, p.Size, len(want))
			}
		}
		killComp(t, a, e, c, 1)
		a.FlushRanks()
	}
}

// TestDenseIdentityWhenDisabled pins the escape hatch: with healing off,
// Dense returns profiles untouched and MaybeHeal never fires.
func TestDenseIdentityWhenDisabled(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	a.SetHealing(false)
	e := newPopulation(t, 90, 7)
	a.AssignAll(e)
	killComp(t, a, e, 0, 20)
	a.FlushRanks()
	if n := a.MaybeHeal(e); n != 0 {
		t.Fatalf("MaybeHeal healed %d components with healing disabled", n)
	}
	for _, slot := range e.AliveSlots() {
		p := e.Node(slot).Profile
		if got := a.Dense(p); got != p {
			t.Fatalf("Dense(%v) = %v with healing disabled, want identity", p, got)
		}
	}
	if a.HealsTotal() != 0 {
		t.Fatalf("HealsTotal = %d with healing disabled", a.HealsTotal())
	}
}

// TestMaybeHealThreshold pins the trigger: a component re-densifies only
// once its vacancy count exceeds max(4, size/4), and the repair compacts
// the index space in (Index, ID) order without an epoch bump.
func TestMaybeHealThreshold(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	e := newPopulation(t, 90, 7)
	a.AssignAll(e)
	const c = view.ComponentID(2)
	epoch := a.Epoch()

	// Walk kills up to the threshold: size ~30, so the trigger needs
	// len(freeIndex) > max(4, size/4). Track it against the live size.
	kills := 0
	for {
		threshold := healThreshold(a.sizes[c])
		if len(a.freeIndex[c]) >= threshold {
			break
		}
		killComp(t, a, e, c, 1)
		a.FlushRanks()
		kills++
		if kills > 30 {
			t.Fatal("never reached the heal threshold")
		}
	}
	if n := a.MaybeHeal(e); n != 0 {
		t.Fatalf("healed %d components at the threshold boundary (vacancies == threshold must not trigger)", n)
	}

	// One more death crosses it.
	killComp(t, a, e, c, 1)
	a.FlushRanks()
	want := oracleRanks(e, c)
	if n := a.MaybeHeal(e); n != 1 {
		t.Fatalf("healed %d components past the threshold, want 1", n)
	}
	if a.HealsTotal() != 1 {
		t.Fatalf("HealsTotal = %d after one repair", a.HealsTotal())
	}
	if len(a.freeIndex[c]) != 0 {
		t.Fatalf("freeIndex not drained by the repair: %v", a.freeIndex[c])
	}
	if a.Epoch() != epoch {
		t.Fatalf("repair bumped the epoch %d -> %d; re-densify must not invalidate descriptors", epoch, a.Epoch())
	}
	// The new sparse indices are exactly the previous dense ranks, so the
	// repair was pure bookkeeping for the gradient.
	for slot, rank := range want {
		p := e.Node(slot).Profile
		if p.Index != rank {
			t.Fatalf("slot %d re-densified to index %d, previous dense rank %d", slot, p.Index, rank)
		}
		if int(p.Size) != len(want) {
			t.Fatalf("slot %d re-densified size %d, alive %d", slot, p.Size, len(want))
		}
		if got := a.Dense(p); got != p {
			t.Fatalf("post-repair Dense(%v) = %v, want identity on a dense component", p, got)
		}
	}
}

// TestDenseStaleAndJoinProfiles pins the translation edges: stale-epoch
// profiles pass through untouched, and a just-joined index beyond the
// rank table translates by subtracting the tracked vacancy count.
func TestDenseStaleAndJoinProfiles(t *testing.T) {
	a, _ := NewAllocator(ringsTopo(3))
	e := newPopulation(t, 90, 7)
	a.AssignAll(e)
	const c = view.ComponentID(0)
	killComp(t, a, e, c, 3)
	a.FlushRanks()

	stale := e.Node(e.AliveSlots()[0]).Profile
	stale.Epoch++
	if got := a.Dense(stale); got != stale {
		t.Fatalf("Dense(%v) = %v on a foreign epoch, want identity", stale, got)
	}

	// A join lands past the dense prefix; before the next flush its index
	// is beyond the rank table and must still translate densely.
	slots := e.AddNodes(1)
	n := e.Node(slots[0])
	n.Profile.Key = e.Rand().Uint64()
	a.AssignJoin(n)
	if n.Profile.Comp == c {
		vac := int32(len(a.freeIndex[c]))
		if got := a.Dense(n.Profile); got.Index != n.Profile.Index-vac {
			t.Fatalf("join Dense index = %d, want %d", got.Index, n.Profile.Index-vac)
		}
	}
}
