package core

import (
	"fmt"
	"sort"

	"sosf/internal/shapes"
	"sosf/internal/sim"
	"sosf/internal/spec"
	"sosf/internal/view"
)

// Allocator implements the runtime's role allocation: deciding which node
// belongs to which component and handing out the dense per-component
// indices that shapes build their structure on.
//
// Assignment uses weighted rendezvous hashing over stable per-node keys, so
// it is deterministic, weight-proportional, and minimally disruptive: when
// a reconfiguration adds or removes components, only the nodes whose
// arg-min changes move. Index assignment (the "differentiation of nodes"
// the paper assigns to the runtime) happens at configuration epochs: the
// allocator plays the part of the configuration service a deployed system
// would consult when (re)joining.
type Allocator struct {
	topo   *spec.Topology
	shapes []shapes.Shape
	epoch  uint32
	// nextIndex tracks, per component, the next dense index to hand to a
	// node joining mid-epoch (churn).
	nextIndex []int32
	// freeIndex recycles indices vacated by departed members, keeping the
	// index space dense under sustained churn (shape gradients assume
	// indices roughly span 0..size-1).
	freeIndex [][]int32
	// sizes tracks the current alive membership estimate per component.
	sizes []int32
	// noHeal disables the self-healing layer (dense alive-rank translation
	// plus threshold re-densify), preserving the legacy behavior where
	// index holes left by unreplaced deaths pin shape gradients below the
	// oracle ranking until a full Reconfigure.
	noHeal bool
	// ranks maps, per component, a current-epoch sparse index to its dense
	// alive-rank: index minus the number of vacated indices below it. This
	// is exactly the position the oracle assigns when it sorts survivors by
	// (Index, ID), so rankers that translate through Dense steer toward the
	// measured target structure even while the index space has holes.
	// Tables are rebuilt only at serial mutation barriers (FlushRanks,
	// AssignAll, reDensify, restore) and are read-only during the parallel
	// round phases, keeping the steady-state round loop allocation-free.
	ranks [][]int32
	// ranksDirty marks components whose ranks table went stale after a
	// mid-epoch join/leave; System flushes it after every mutation batch.
	ranksDirty []bool
	// healsTotal counts re-densify repairs performed since start (or since
	// the snapshot the allocator was restored from was taken, cumulative).
	healsTotal uint64
	// portCounts caches the number of ports per component.
	portCounts []int32
	// sides flattens every link into its two directed endpoints.
	sides []LinkSide
	// sidesByComp indexes sides by local component.
	sidesByComp [][]int
}

// LinkSide is one directed endpoint of a link: the local (component, port)
// pair and the remote one it must connect to.
type LinkSide struct {
	// Link is the index of the link in the topology's link list.
	Link int
	// Comp and Port identify the local port.
	Comp view.ComponentID
	Port int32
	// RemoteComp and RemotePort identify the far end.
	RemoteComp view.ComponentID
	RemotePort int32
}

// NewAllocator builds an allocator for a validated topology.
func NewAllocator(topo *spec.Topology) (*Allocator, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{}
	if err := a.install(topo); err != nil {
		return nil, err
	}
	return a, nil
}

// install replaces the topology and instantiates its shapes.
func (a *Allocator) install(topo *spec.Topology) error {
	ss := make([]shapes.Shape, len(topo.Components))
	for i := range topo.Components {
		s, err := topo.Components[i].NewShape()
		if err != nil {
			return fmt.Errorf("allocator: %w", err)
		}
		ss[i] = s
	}
	a.topo = topo
	a.shapes = ss
	a.nextIndex = make([]int32, len(topo.Components))
	a.freeIndex = make([][]int32, len(topo.Components))
	a.sizes = make([]int32, len(topo.Components))
	a.ranks = make([][]int32, len(topo.Components))
	a.ranksDirty = make([]bool, len(topo.Components))

	a.portCounts = make([]int32, len(topo.Components))
	for i := range topo.Components {
		a.portCounts[i] = int32(len(topo.Components[i].Ports))
	}
	a.sides = a.sides[:0]
	a.sidesByComp = make([][]int, len(topo.Components))
	portIndex := func(ref spec.PortRef) (view.ComponentID, int32) {
		ci := topo.ComponentIndex(ref.Component)
		for pi, p := range topo.Components[ci].Ports {
			if p == ref.Port {
				return view.ComponentID(ci), int32(pi)
			}
		}
		// Unreachable: the topology is validated.
		return view.ComponentID(ci), -1
	}
	for li, l := range topo.Links {
		ac, ap := portIndex(l.A)
		bc, bp := portIndex(l.B)
		a.sides = append(a.sides,
			LinkSide{Link: li, Comp: ac, Port: ap, RemoteComp: bc, RemotePort: bp},
			LinkSide{Link: li, Comp: bc, Port: bp, RemoteComp: ac, RemotePort: ap},
		)
	}
	for si := range a.sides {
		c := a.sides[si].Comp
		a.sidesByComp[c] = append(a.sidesByComp[c], si)
	}
	return nil
}

// Ports returns the number of ports of the given component.
func (a *Allocator) Ports(c view.ComponentID) int32 {
	if c < 0 || int(c) >= len(a.portCounts) {
		return 0
	}
	return a.portCounts[c]
}

// Sides returns every link endpoint (two per link).
func (a *Allocator) Sides() []LinkSide { return a.sides }

// SidesOf returns the indices (into Sides) of the link endpoints local to
// the given component.
func (a *Allocator) SidesOf(c view.ComponentID) []int {
	if c < 0 || int(c) >= len(a.sidesByComp) {
		return nil
	}
	return a.sidesByComp[c]
}

// Topology returns the active topology.
func (a *Allocator) Topology() *spec.Topology { return a.topo }

// Epoch returns the current configuration epoch.
func (a *Allocator) Epoch() uint32 { return a.epoch }

// Shape returns the shape of the given component.
func (a *Allocator) Shape(c view.ComponentID) shapes.Shape { return a.shapes[c] }

// Components returns the number of components in the active topology.
func (a *Allocator) Components() int { return len(a.topo.Components) }

// ComponentOf computes the rendezvous assignment for a node key under the
// active topology.
func (a *Allocator) ComponentOf(key uint64) view.ComponentID {
	best, bestScore := 0, rendezvousScore(key, 0, a.topo.Components[0].Weight)
	for c := 1; c < len(a.topo.Components); c++ {
		if s := rendezvousScore(key, c, a.topo.Components[c].Weight); s < bestScore {
			best, bestScore = c, s
		}
	}
	return view.ComponentID(best)
}

// AssignAll (re)assigns every alive node in the engine: components via
// rendezvous hashing, then dense indices 0..size-1 per component in
// node-key order. Call it at start-up and after every Reconfigure.
func (a *Allocator) AssignAll(e *sim.Engine) {
	groups := make([][]*sim.Node, len(a.topo.Components))
	for _, slot := range e.AliveSlots() {
		n := e.Node(slot)
		c := a.ComponentOf(n.Profile.Key)
		groups[c] = append(groups[c], n)
	}
	for c, members := range groups {
		sort.Slice(members, func(i, j int) bool {
			if members[i].Profile.Key != members[j].Profile.Key {
				return members[i].Profile.Key < members[j].Profile.Key
			}
			return members[i].ID < members[j].ID
		})
		size := int32(len(members))
		for i, n := range members {
			n.Profile.Comp = view.ComponentID(c)
			n.Profile.Index = int32(i)
			n.Profile.Size = size
			n.Profile.Epoch = a.epoch
		}
		a.nextIndex[c] = size
		a.freeIndex[c] = a.freeIndex[c][:0]
		a.sizes[c] = size
		a.refreshRanksComp(c)
	}
}

// AssignJoin gives a profile to one node joining mid-epoch: the rendezvous
// component, the next free index, and the allocator's current size
// estimate. Existing members keep their indices (no global reshuffle on a
// single join; shape gradients tolerate index gaps, and the next
// reconfiguration re-densifies).
func (a *Allocator) AssignJoin(n *sim.Node) {
	c := a.ComponentOf(n.Profile.Key)
	a.sizes[c]++
	var idx int32
	if free := a.freeIndex[c]; len(free) > 0 {
		idx = free[len(free)-1]
		a.freeIndex[c] = free[:len(free)-1]
	} else {
		idx = a.nextIndex[c]
		a.nextIndex[c]++
	}
	n.Profile.Comp = c
	n.Profile.Index = idx
	n.Profile.Size = a.sizes[c]
	n.Profile.Epoch = a.epoch
	a.ranksDirty[c] = true
}

// NoteLeave updates the allocator's size estimate when a node is known to
// have left (failure detection / churn bookkeeping) and recycles its index
// for the next join.
func (a *Allocator) NoteLeave(n *sim.Node) {
	c := n.Profile.Comp
	if c < 0 || int(c) >= len(a.sizes) || n.Profile.Epoch != a.epoch {
		return
	}
	if a.sizes[c] > 0 {
		a.sizes[c]--
	}
	a.freeIndex[c] = append(a.freeIndex[c], n.Profile.Index)
	a.ranksDirty[c] = true
}

// refreshRanksComp rebuilds one component's dense alive-rank table from
// its freeIndex list: ranks[c][i] = i minus the number of vacated indices
// strictly below i. Vacated indices themselves get the same formula (the
// rank an alive holder of that slot would have), so stale descriptors of
// departed members still translate to a deterministic, in-range rank.
func (a *Allocator) refreshRanksComp(c int) {
	n := int(a.nextIndex[c])
	t := a.ranks[c]
	if cap(t) < n {
		t = make([]int32, n)
	} else {
		t = t[:n]
	}
	for i := range t {
		t[i] = 0
	}
	for _, f := range a.freeIndex[c] {
		if int(f) < n {
			t[f] = -1
		}
	}
	var vac int32
	for i := range t {
		free := t[i] < 0
		t[i] = int32(i) - vac
		if free {
			vac++
		}
	}
	a.ranks[c] = t
	a.ranksDirty[c] = false
}

// FlushRanks rebuilds the dense-rank tables of components whose membership
// changed since the last flush. System calls it after every mutation batch
// (kills, joins, churn) at the serial round barrier; it is a no-op when
// nothing moved, so steady-state rounds never touch it.
func (a *Allocator) FlushRanks() {
	for c, dirty := range a.ranksDirty {
		if dirty {
			a.refreshRanksComp(c)
		}
	}
}

// Dense translates a profile's sparse index and stamped size into the
// component's current dense alive-rank and alive size. The dense rank is
// exactly the position the oracle assigns the node when ranking survivors
// by (Index, ID), so rankers comparing Dense profiles agree with the
// measured target structure even while deaths have left index holes.
// Identity when healing is disabled or the profile is from a stale epoch.
func (a *Allocator) Dense(p view.Profile) view.Profile {
	if p.Epoch != a.epoch || p.Comp < 0 || int(p.Comp) >= len(a.ranks) {
		return p
	}
	return a.denseOf(p.Comp).apply(p)
}

// denseMap is Dense bound to one component of the current epoch, so a
// ranker resolves the component's table once per pool and translates each
// candidate inline.
type denseMap struct {
	on     bool
	ranks  []int32
	vacant int32
	size   int32
}

// denseOf binds Dense to component c, which must be valid in the current
// epoch.
func (a *Allocator) denseOf(c view.ComponentID) denseMap {
	if a.noHeal {
		return denseMap{}
	}
	return denseMap{on: true, ranks: a.ranks[c], vacant: int32(len(a.freeIndex[c])), size: a.sizes[c]}
}

// apply is Dense for a current-epoch profile of the bound component.
func (m denseMap) apply(p view.Profile) view.Profile {
	if !m.on {
		return p
	}
	if int(p.Index) >= 0 && int(p.Index) < len(m.ranks) {
		p.Index = m.ranks[p.Index]
	} else if p.Index > 0 {
		// Beyond the table (a join the table predates, before the next
		// flush): every tracked vacancy sits below this index.
		p.Index -= m.vacant
	}
	if m.size > 0 {
		p.Size = m.size
	}
	return p
}

// healThreshold is the vacancy count above which a component re-densifies:
// proportional to the component size so small components heal promptly
// while large ones amortize the O(members) compaction.
func healThreshold(size int32) int {
	t := int(size) / 4
	if t < 4 {
		t = 4
	}
	return t
}

// MaybeHeal scans components for vacancy buildup and re-densifies those
// whose freeIndex crossed the heal threshold. It must run at the serial
// round barrier (every membership mutation path already does), never from
// the parallel round phases: re-densify rewrites member profiles and may
// allocate. Returns the number of components healed.
func (a *Allocator) MaybeHeal(e *sim.Engine) int {
	if a.noHeal {
		return 0
	}
	healed := 0
	for c := range a.freeIndex {
		if len(a.freeIndex[c]) > healThreshold(a.sizes[c]) {
			a.reDensify(view.ComponentID(c), e)
			healed++
		}
	}
	return healed
}

// reDensify compacts one component's index space without an epoch bump:
// every alive current-epoch member is reassigned the dense index it
// already occupies in (Index, ID) order. Because the new sparse index of
// each member equals its previous dense rank, the repair is pure
// bookkeeping — gradient decisions made through Dense are unchanged in the
// same instant, no descriptors are invalidated, and no state is evicted.
// Stale copies of pre-heal descriptors in remote views briefly translate
// through the reset table; they wash out through normal gossip freshness.
func (a *Allocator) reDensify(c view.ComponentID, e *sim.Engine) {
	var ms []*sim.Node
	for _, slot := range e.AliveSlots() {
		n := e.Node(slot)
		if n.Profile.Comp == c && n.Profile.Epoch == a.epoch {
			ms = append(ms, n)
		}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Profile.Index != ms[j].Profile.Index {
			return ms[i].Profile.Index < ms[j].Profile.Index
		}
		return ms[i].ID < ms[j].ID
	})
	size := int32(len(ms))
	for i, n := range ms {
		n.Profile.Index = int32(i)
		n.Profile.Size = size
	}
	a.nextIndex[c] = size
	a.freeIndex[c] = a.freeIndex[c][:0]
	a.sizes[c] = size
	a.refreshRanksComp(int(c))
	a.healsTotal++
}

// HealsTotal returns the cumulative number of re-densify repairs.
func (a *Allocator) HealsTotal() uint64 { return a.healsTotal }

// SetHealing enables or disables the self-healing layer. Call before the
// first round; flipping it mid-run would silently change gradient ranks.
func (a *Allocator) SetHealing(on bool) { a.noHeal = !on }

// Reconfigure installs a new topology, bumps the epoch, and reassigns all
// alive nodes. Descriptors of the previous epoch become stale everywhere
// and are evicted on contact by every layer.
func (a *Allocator) Reconfigure(e *sim.Engine, topo *spec.Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if err := a.install(topo); err != nil {
		return err
	}
	a.epoch++
	a.AssignAll(e)
	return nil
}
