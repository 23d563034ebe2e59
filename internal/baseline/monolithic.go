// Package baseline implements the comparator the paper positions itself
// against (Section 2.2): a *monolithic* self-organizing overlay in the
// T-Man / Vicinity tradition, where one hand-crafted global distance
// function must express the entire target topology.
//
// For the ring-of-rings target, the monolithic distance function needs a
// global dense indexing fixed up front: node g belongs to segment g/s at
// position g%s, segments form rings, and the designated boundary nodes
// (position s-1 of segment i, position 0 of segment i+1) carry the
// inter-segment links. This works — but exactly as the paper argues, it is
// brittle: the roles are baked into the indexing, so there is no
// re-election when a boundary node dies and no cheap remapping when the
// topology changes. The eval driver contrasts this with the composed
// runtime, which heals both.
package baseline

import (
	"fmt"
	"math/rand"

	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/vicinity"
	"sosf/internal/view"
)

// linkBonusSlots is the extra view capacity granted to boundary nodes so
// they can hold their inter-segment partner on top of the ring neighbors.
const linkBonusSlots = 1

// monoRanker is the single global distance function: intra-segment cyclic
// distance, with the designated boundary pairs at distance 0 (they must
// outrank ring neighbors to be kept by both ends) and everything else
// rejected.
type monoRanker struct {
	segments int
	segSize  int
}

var _ vicinity.Ranker = monoRanker{}

// coords splits a global index into (segment, position).
func (r monoRanker) coords(idx int32) (seg, pos int) {
	return int(idx) / r.segSize, int(idx) % r.segSize
}

// boundary reports whether (a, b) is one of the designated inter-segment
// pairs: head of segment i (last position) to tail of segment i+1
// (position 0).
func (r monoRanker) boundary(aSeg, aPos, bSeg, bPos int) bool {
	if aPos == r.segSize-1 && bPos == 0 && bSeg == (aSeg+1)%r.segments {
		return true
	}
	return bPos == r.segSize-1 && aPos == 0 && aSeg == (bSeg+1)%r.segments
}

// Rank implements vicinity.Ranker: the owner's coordinates are split once
// per pool.
func (r monoRanker) Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey {
	oSeg, oPos := r.coords(owner.Index)
	for i := range pool {
		d := &pool[i]
		if int(d.Age) > maxAge {
			continue
		}
		if rank := r.rank(oSeg, oPos, d.Profile.Index); rank < view.RankInf {
			keys = append(keys, view.RankKey{Rank: rank, ID: d.ID, Age: d.Age, Idx: int32(i)})
		}
	}
	return keys
}

// rank is the distance from the owner at (oSeg, oPos) to the candidate
// with global index cand.
func (r monoRanker) rank(oSeg, oPos int, cand int32) float64 {
	cSeg, cPos := r.coords(cand)
	if oSeg == cSeg {
		d := oPos - cPos
		if d < 0 {
			d = -d
		}
		if w := r.segSize - d; w < d {
			d = w
		}
		return float64(d)
	}
	if r.boundary(oSeg, oPos, cSeg, cPos) {
		return 0
	}
	return view.RankInf
}

// Capacity implements vicinity.Ranker.
func (r monoRanker) Capacity(p view.Profile) int {
	_, pos := r.coords(p.Index)
	capacity := 2 + 3 // ring degree + slack, mirroring the shapes package
	if pos == 0 || pos == r.segSize-1 {
		capacity += linkBonusSlots
	}
	return capacity
}

// System is a running monolithic deployment: peer sampling plus one
// Vicinity instance under the global distance function.
type System struct {
	eng     *sim.Engine
	rps     *peersampling.Protocol
	overlay *vicinity.Protocol
	ranker  monoRanker
	nodes   int

	// Measurement scratch, reused by the per-round accuracy scan.
	slots       []int
	bySeg       [][]*sim.Node
	byIndex     map[int32]*sim.Node
	ring, links [][2]*sim.Node
}

// New builds a monolithic ring-of-rings system: nodes must be divisible
// into `segments` equal segments (the global indexing demands it — itself
// one of the rigidities of the monolithic approach).
func New(nodes, segments int, seed int64) (*System, error) {
	if segments < 1 || nodes%segments != 0 {
		return nil, fmt.Errorf("baseline: %d nodes not divisible into %d equal segments", nodes, segments)
	}
	segSize := nodes / segments
	if segSize < 3 {
		return nil, fmt.Errorf("baseline: segments of %d nodes are too small for rings", segSize)
	}
	s := &System{
		eng:    sim.New(seed),
		ranker: monoRanker{segments: segments, segSize: segSize},
		nodes:  nodes,
	}
	s.rps = peersampling.New()
	s.eng.Register(s.rps)
	s.overlay = vicinity.New("monolithic", s.ranker, s.rps, vicinity.Options{})
	s.eng.Register(s.overlay)

	// The global indexing is assigned once, up front; the permutation is
	// random so indices do not correlate with join order.
	slots := s.eng.AddNodes(nodes)
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(nodes)
	for i, slot := range slots {
		n := s.eng.Node(slot)
		n.Profile = view.Profile{
			Index: int32(perm[i]),
			Size:  int32(nodes),
			Key:   uint64(perm[i]),
		}
		s.eng.InitNode(slot)
	}
	return s, nil
}

// Engine exposes the simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Run executes up to maxRounds rounds.
func (s *System) Run(maxRounds int) (int, error) { return s.eng.Run(maxRounds) }

// Kill fails ceil(f × alive) random nodes.
func (s *System) Kill(f float64) []int { return s.eng.KillFraction(f) }

// targetPairs enumerates the target adjacency over *alive* nodes: ring
// edges between closest surviving positions of each segment, plus the
// designated boundary pairs (only if both designated nodes are alive —
// the monolithic design point under test: those roles cannot move).
// The returned slices are system-owned scratch, valid until the next call.
func (s *System) targetPairs() (ring [][2]*sim.Node, links [][2]*sim.Node) {
	if s.bySeg == nil {
		s.bySeg = make([][]*sim.Node, s.ranker.segments)
		s.byIndex = make(map[int32]*sim.Node, s.nodes)
	}
	bySeg := s.bySeg
	for i := range bySeg {
		bySeg[i] = bySeg[i][:0]
	}
	byIndex := s.byIndex
	clear(byIndex)
	ring, links = s.ring[:0], s.links[:0]
	s.slots = s.eng.AliveSlotsAppend(s.slots[:0])
	for _, slot := range s.slots {
		n := s.eng.Node(slot)
		seg, _ := s.ranker.coords(n.Profile.Index)
		bySeg[seg] = append(bySeg[seg], n)
		byIndex[n.Profile.Index] = n
	}
	for seg, members := range bySeg {
		// Members arrive in slot order; sort by position.
		for i := 1; i < len(members); i++ {
			for j := i; j > 0 && members[j].Profile.Index < members[j-1].Profile.Index; j-- {
				members[j], members[j-1] = members[j-1], members[j]
			}
		}
		m := len(members)
		if m >= 2 {
			for i := 0; i < m; i++ {
				ring = append(ring, [2]*sim.Node{members[i], members[(i+1)%m]})
			}
		}
		// Designated boundary pair out of this segment.
		head := int32(seg*s.ranker.segSize + s.ranker.segSize - 1)
		tail := int32(((seg + 1) % s.ranker.segments) * s.ranker.segSize)
		if h, ok := byIndex[head]; ok {
			if t, ok := byIndex[tail]; ok {
				links = append(links, [2]*sim.Node{h, t})
			}
		}
	}
	s.ring, s.links = ring, links
	return ring, links
}

// Accuracy returns the fraction of alive-target ring edges realized and
// the fraction of the k inter-segment links currently realized. A link
// whose designated endpoint died counts as lost — the monolithic function
// has no way to re-elect it.
func (s *System) Accuracy() (ringFrac, linkFrac float64) {
	ring, links := s.targetPairs()
	ringOK := 0
	for _, p := range ring {
		if s.overlay.View(p[0].Slot).Contains(p[1].ID) ||
			s.overlay.View(p[1].Slot).Contains(p[0].ID) {
			ringOK++
		}
	}
	linkOK := 0
	for _, p := range links {
		if s.overlay.View(p[0].Slot).Contains(p[1].ID) ||
			s.overlay.View(p[1].Slot).Contains(p[0].ID) {
			linkOK++
		}
	}
	if len(ring) > 0 {
		ringFrac = float64(ringOK) / float64(len(ring))
	} else {
		ringFrac = 1
	}
	// The denominator is the *declared* number of links: lost designated
	// endpoints shrink targetPairs' links list, which is precisely the
	// failure being measured.
	linkFrac = float64(linkOK) / float64(s.ranker.segments)
	return ringFrac, linkFrac
}

// BytesPerNode returns the mean bytes per node per round so far.
func (s *System) BytesPerNode() float64 {
	m := s.eng.Meter()
	if m.Rounds() == 0 || s.eng.AliveCount() == 0 {
		return 0
	}
	var total int64
	for r := 0; r < m.Rounds(); r++ {
		total += m.RoundSum(r)
	}
	return float64(total) / float64(m.Rounds()) / float64(s.eng.AliveCount())
}

// RoundsToConverge runs until both ring and link accuracy hit 1.0,
// returning the round count (or maxRounds if it never happens).
func (s *System) RoundsToConverge(maxRounds int) (int, error) {
	for r := 1; r <= maxRounds; r++ {
		if _, err := s.eng.Run(1); err != nil {
			return 0, err
		}
		ringFrac, linkFrac := s.Accuracy()
		if ringFrac >= 1 && linkFrac >= 1 {
			return r, nil
		}
	}
	return maxRounds, nil
}
