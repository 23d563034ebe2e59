package core

import (
	"sort"

	"sosf/internal/graph"
	"sosf/internal/shapes"
	"sosf/internal/sim"
	"sosf/internal/spec"
	"sosf/internal/view"
)

// Sub identifies one of the five measured sub-procedures — the exact series
// of the paper's Figures 2 and 3.
type Sub int

// The five measured sub-procedures, numbered from 0 in presentation order
// so that a Sub indexes the per-sub-procedure arrays below.
const (
	SubElementary  Sub = iota // the component shapes themselves
	SubUO1                    // same-component overlay
	SubUO2                    // distant-component overlay
	SubPortSelect             // port -> manager election
	SubPortConnect            // manager <-> manager links

	NumSubs = 5 // how many sub-procedures are measured
)

// Subs lists the sub-procedures in presentation order.
func Subs() [NumSubs]Sub {
	return [NumSubs]Sub{SubElementary, SubUO1, SubUO2, SubPortSelect, SubPortConnect}
}

// String implements fmt.Stringer with the paper's series labels.
func (s Sub) String() string {
	switch s {
	case SubElementary:
		return "Elementary Topology"
	case SubUO1:
		return "Same-component (UO1)"
	case SubUO2:
		return "Distant-component (UO2)"
	case SubPortSelect:
		return "Port Selection"
	case SubPortConnect:
		return "Port Connection"
	default:
		return "unknown"
	}
}

// Metrics is one round's snapshot of per-sub-procedure accuracy, each in
// [0, 1] where 1 means fully converged.
type Metrics struct {
	Round    int
	Fraction [NumSubs]float64 // indexed by Sub
}

// Converged reports whether the given sub-procedure is at 1.0.
func (m Metrics) Converged(s Sub) bool { return m.Fraction[s] >= 1.0 }

// AllConverged reports whether every sub-procedure is at 1.0.
func (m Metrics) AllConverged() bool {
	for _, f := range m.Fraction {
		if f < 1.0 {
			return false
		}
	}
	return true
}

// Oracle measures ground-truth convergence of every layer. It has global
// knowledge (it is evaluation instrumentation, not part of the protocols):
// it recomputes target adjacencies, election winners and link endpoints
// from the current alive population, exactly like a PeerSim observer.
//
// The oracle runs after every round in tracker-driven experiments, so its
// membership scan reuses scratch storage rather than re-allocating.
type Oracle struct {
	sys *System

	members [][]*sim.Node // Members scratch, reused per Measure
	slots   []int         // alive-slot scratch
	sorter  memberSorter

	// edges caches every component's target edge list. A list depends only
	// on the component's shape and member count, so it is rebuilt when the
	// count changes, and the whole cache is dropped when the topology does
	// (reconfiguration bumps the epoch, restore swaps the topology).
	edges     []edgeList
	edgeEpoch uint32
	edgeTopo  *spec.Topology
}

// edgeList is one component's cached shapes.TargetEdges(shape, n).
type edgeList struct {
	n     int
	edges [][2]int
}

// targetEdges returns the target edges of component c at n members. In
// steady state this is a cache hit, which keeps Measure from rebuilding a
// map, a slice and a sort per component every round.
func (o *Oracle) targetEdges(c view.ComponentID, n int) [][2]int {
	a := o.sys.alloc
	if o.edgeEpoch != a.Epoch() || o.edgeTopo != a.Topology() {
		o.edges = make([]edgeList, a.Components())
		o.edgeEpoch, o.edgeTopo = a.Epoch(), a.Topology()
	}
	el := &o.edges[c]
	if el.n != n {
		*el = edgeList{n: n, edges: shapes.TargetEdges(a.Shape(c), n)}
	}
	return el.edges
}

// Members returns the alive, current-epoch members of every component,
// indexed by component and sorted by (Index, ID) — the dense-rank order
// shapes are defined over. The returned slices are oracle-owned scratch,
// valid until the next call of Members, Measure, StuckComponents or
// RealizedGraph.
func (o *Oracle) Members() [][]*sim.Node {
	s := o.sys
	ncomps := s.alloc.Components()
	if cap(o.members) < ncomps {
		o.members = make([][]*sim.Node, ncomps)
	}
	members := o.members[:ncomps]
	for i := range members {
		members[i] = members[i][:0]
	}
	epoch := s.alloc.Epoch()
	o.slots = s.eng.AliveSlotsAppend(o.slots[:0])
	for _, slot := range o.slots {
		n := s.eng.Node(slot)
		if n.Profile.Epoch != epoch || n.Profile.Comp < 0 ||
			int(n.Profile.Comp) >= len(members) {
			continue
		}
		members[n.Profile.Comp] = append(members[n.Profile.Comp], n)
	}
	for _, ms := range members {
		o.sorter.ms = ms
		sort.Sort(&o.sorter)
		o.sorter.ms = nil
	}
	return members
}

// memberSorter orders nodes by (Index, ID): a total order (IDs are
// unique), so the result is algorithm-independent.
type memberSorter struct{ ms []*sim.Node }

func (s *memberSorter) Len() int      { return len(s.ms) }
func (s *memberSorter) Swap(i, j int) { s.ms[i], s.ms[j] = s.ms[j], s.ms[i] }
func (s *memberSorter) Less(i, j int) bool {
	if s.ms[i].Profile.Index != s.ms[j].Profile.Index {
		return s.ms[i].Profile.Index < s.ms[j].Profile.Index
	}
	return s.ms[i].ID < s.ms[j].ID
}

// Winner returns the ground-truth manager of the given port: the alive
// member with the minimal election score (ties by node ID). ok is false
// for an empty component.
func (o *Oracle) Winner(members []*sim.Node, comp view.ComponentID, port int32) (*sim.Node, bool) {
	var best *sim.Node
	var bestRec PortRecord
	for _, n := range members {
		rec := PortRecord{
			Score: electionScore(comp, port, n.Profile.Epoch, n.ID),
			ID:    n.ID,
		}
		if best == nil || rec.Better(bestRec) {
			best, bestRec = n, rec
		}
	}
	return best, best != nil
}

// Measure computes the five accuracy fractions for the current round.
func (o *Oracle) Measure() Metrics {
	members := o.Members()
	m := Metrics{Round: o.sys.eng.Round()}
	m.Fraction[SubElementary] = o.elementary(members)
	m.Fraction[SubUO1] = o.uo1(members)
	m.Fraction[SubUO2] = o.uo2(members)
	m.Fraction[SubPortSelect] = o.portSelect(members)
	m.Fraction[SubPortConnect] = o.portConnect(members)
	return m
}

// elementary is the fraction of target shape edges realized in the union
// of the endpoints' intra-component overlays (core protocol and UO1) — the
// paper defines the realized system as "the union of these different
// overlays", and for a component both layers connect its members.
func (o *Oracle) elementary(members [][]*sim.Node) float64 {
	total, ok := 0, 0
	for c, ms := range members {
		realized, edges := o.realized(view.ComponentID(c), ms)
		ok += realized
		total += edges
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// realized counts the target shape edges of component c, whose members are
// ms, and how many of them are realized: either endpoint holds the other
// in its core or UO1 view.
func (o *Oracle) realized(c view.ComponentID, ms []*sim.Node) (ok, total int) {
	if len(ms) < 2 {
		return 0, 0
	}
	s := o.sys
	for _, e := range o.targetEdges(c, len(ms)) {
		u, v := ms[e[0]], ms[e[1]]
		total++
		if s.core.View(u.Slot).Contains(v.ID) || s.core.View(v.Slot).Contains(u.ID) ||
			s.uo1.View(u.Slot).Contains(v.ID) || s.uo1.View(v.Slot).Contains(u.ID) {
			ok++
		}
	}
	return ok, total
}

// uo1 is the fraction of nodes that have gathered a full same-component
// view: at least min(capacity, component size - 1) fellow members. Views
// of nodes in components smaller than the capacity legitimately keep
// foreign entries in the spare slots (the finite foreign penalty keeps
// gossip flowing during bootstrap), so purity beyond the quota is not
// required.
func (o *Oracle) uo1(members [][]*sim.Node) float64 {
	s := o.sys
	total, ok := 0, 0
	for _, ms := range members {
		want := s.cfg.UO1Capacity
		if len(ms)-1 < want {
			want = len(ms) - 1
		}
		for _, n := range ms {
			total++
			v := s.uo1.View(n.Slot)
			same := 0
			for i := 0; i < v.Len(); i++ {
				d := v.At(i)
				if d.Profile.Comp == n.Profile.Comp && d.Profile.Epoch == n.Profile.Epoch {
					same++
				}
			}
			if same >= want {
				ok++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// uo2 is the fraction of nodes whose distant-component table covers every
// other populated component. With UO2 disabled (ablation) it reports 1 so
// the remaining metrics stay comparable.
func (o *Oracle) uo2(members [][]*sim.Node) float64 {
	s := o.sys
	if s.uo2 == nil {
		return 1
	}
	populated := 0
	for _, ms := range members {
		if len(ms) > 0 {
			populated++
		}
	}
	want := populated - 1
	total, ok := 0, 0
	for _, ms := range members {
		for _, n := range ms {
			total++
			if s.uo2.Coverage(n.Slot) >= want {
				ok++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// portSelect is the fraction of (member, port) pairs whose local belief
// names the ground-truth winner.
func (o *Oracle) portSelect(members [][]*sim.Node) float64 {
	s := o.sys
	total, ok := 0, 0
	for c, ms := range members {
		comp := view.ComponentID(c)
		nports := s.alloc.Ports(comp)
		if nports == 0 || len(ms) == 0 {
			continue
		}
		for port := int32(0); port < nports; port++ {
			winner, _ := o.Winner(ms, comp, port)
			for _, n := range ms {
				total++
				if s.ports.Belief(n.Slot, port).ID == winner.ID {
					ok++
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// portConnect is the fraction of links whose two ground-truth managers
// know each other.
func (o *Oracle) portConnect(members [][]*sim.Node) float64 {
	s := o.sys
	sides := s.alloc.Sides()
	total, ok := 0, 0
	for si := 0; si+1 < len(sides); si += 2 {
		a, b := sides[si], sides[si+1]
		if len(members[a.Comp]) == 0 || len(members[b.Comp]) == 0 {
			continue // unpopulated endpoint: link not measurable
		}
		total++
		ma, _ := o.Winner(members[a.Comp], a.Comp, a.Port)
		mb, _ := o.Winner(members[b.Comp], b.Comp, b.Port)
		if s.conns.Remote(ma.Slot, si).ID == mb.ID &&
			s.conns.Remote(mb.Slot, si+1).ID == ma.ID {
			ok++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// StuckComponents returns the names of components whose elementary shape
// is not fully realized in the current state, in topology order — the
// per-component refinement of the Elementary Topology fraction. Diagnostic
// tooling (the fuzz campaign's Reconverge violation detail) uses it to say
// *which* component failed to re-form instead of just the global fraction.
func (o *Oracle) StuckComponents() []string {
	var out []string
	for c, ms := range o.Members() {
		if ok, total := o.realized(view.ComponentID(c), ms); ok < total {
			out = append(out, o.sys.alloc.Topology().Components[c].Name)
		}
	}
	return out
}

// RealizedGraph builds the realized system topology: the union of every
// component's core overlay plus the established inter-component links —
// "the union of these different overlays" in the paper's words.
func (o *Oracle) RealizedGraph() *graph.Graph {
	s := o.sys
	g := graph.New(s.eng.Size())
	o.slots = s.eng.AliveSlotsAppend(o.slots[:0])
	for _, slot := range o.slots {
		v := s.core.View(slot)
		for i := 0; i < v.Len(); i++ {
			if peer := s.eng.Lookup(v.At(i).ID); peer != nil && peer.Alive {
				g.AddEdge(slot, peer.Slot)
			}
		}
	}
	members := o.Members()
	sides := s.alloc.Sides()
	for si := 0; si+1 < len(sides); si += 2 {
		a, b := sides[si], sides[si+1]
		if len(members[a.Comp]) == 0 || len(members[b.Comp]) == 0 {
			continue
		}
		ma, _ := o.Winner(members[a.Comp], a.Comp, a.Port)
		mb, _ := o.Winner(members[b.Comp], b.Comp, b.Port)
		if s.conns.Remote(ma.Slot, si).ID == mb.ID {
			g.AddEdge(ma.Slot, mb.Slot)
		}
	}
	return g
}

// Tracker measures a run, keeping the latest round's metrics and the first
// round at which each sub-procedure converged. It only measures: the
// engine owner's round-end hook calls Update after each round and states
// its own stop rule, reading this round's metrics from Last instead of
// measuring again.
type Tracker struct {
	Oracle *Oracle
	// Last is the most recently measured round.
	Last Metrics
	// FirstDone is the first round each sub-procedure converged, indexed
	// by Sub, or -1 while it has not.
	FirstDone [NumSubs]int
}

// NewTracker builds a fresh tracker over the system's oracle. It measures
// nothing until its caller's round-end hook calls Update.
func NewTracker(s *System) *Tracker {
	t := &Tracker{Oracle: s.Oracle()}
	t.Reset()
	return t
}

// Update measures the round just ended into Last and marks the
// sub-procedures that converged for the first time.
func (t *Tracker) Update() {
	t.Last = t.Oracle.Measure()
	for s, round := range t.FirstDone {
		if round < 0 && t.Last.Converged(Sub(s)) {
			t.FirstDone[s] = t.Last.Round
		}
	}
}

// ConvergenceRound returns the first round the sub-procedure converged,
// or -1 if it never did.
func (t *Tracker) ConvergenceRound(s Sub) int { return t.FirstDone[s] }

// Reset clears the convergence marks (used around mid-run events such as
// reconfigurations, to measure re-convergence).
func (t *Tracker) Reset() {
	for s := range t.FirstDone {
		t.FirstDone[s] = -1
	}
}
