package core

import (
	"sosf/internal/arena"
	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// PortConnect is the port-connection sub-procedure: for every link declared
// in the topology, the manager of each end must discover the manager of the
// other end, yielding a concrete node-level connection between the two
// components.
//
// A manager resolves the far end by querying a contact inside the remote
// component — normally its UO2 contact, or locally when the link joins two
// ports of the same component, with a peer-sampling fallback during
// bootstrap. The queried node answers with its current port-selection
// belief, which the manager adopts (best claim wins, freshest stamp on
// ties). Answers about a dead manager stop being refreshed, so the belief
// expires and manager failover propagates to the link layer automatically.
//
// PortConnect is a pure lookup protocol: it reads the (frozen) state of the
// layers below and mutates only its own per-slot beliefs, so the whole
// resolution — bytes metered into the worker's shard included — runs in the
// parallel plan phase; it routes nothing, so it has no plan codec, the
// engine keeps no route table for it, and it has no Deliver work at all.
type PortConnect struct {
	alloc *Allocator
	ports *PortSelect
	uo2   *UO2
	rps   *peersampling.Protocol

	// states holds the per-slot belief tables as dense struct-of-arrays
	// state: headers in one contiguous slice, belief rows carved from a
	// shared arena by the serial InitNode only. The parallel phases never
	// touch the arena: a row that turns out too narrow (reconfiguration,
	// restore) is replaced by a private heap copy.
	states []connState
	arena  []PortRecord
}

type connState struct {
	epoch   uint32
	comp    view.ComponentID
	remotes []PortRecord // indexed by position in alloc.SidesOf(comp)
}

var _ sim.Protocol = (*PortConnect)(nil)

// NewPortConnect creates the port-connection protocol. uo2 may be nil (the
// ablation experiment disables it; resolution then falls back to the
// peer-sampling service and gets much slower — which is the point of the
// ablation). A remote manager belief is kept for portTTL rounds.
func NewPortConnect(alloc *Allocator, ports *PortSelect, uo2 *UO2, rps *peersampling.Protocol) *PortConnect {
	return &PortConnect{alloc: alloc, ports: ports, uo2: uo2, rps: rps}
}

// Name implements sim.Protocol.
func (p *PortConnect) Name() string { return "portconnect" }

// Resize implements sim.Protocol: it sizes the per-slot storage to n
// slots. The belief rows depend on the node's component, so InitNode
// carves them.
func (p *PortConnect) Resize(n int) {
	for len(p.states) < n {
		p.states = append(p.states, connState{epoch: ^uint32(0)})
	}
	p.states = p.states[:n]
}

// InitNode implements sim.Protocol.
func (p *PortConnect) InitNode(e *sim.Engine, slot int) {
	st := &p.states[slot]
	// One belief per link side of the node's component; the profile is
	// assigned before InitNode runs, so the row is carved here, at the
	// serial barrier, like every other protocol's per-slot storage.
	if nsides := len(p.alloc.SidesOf(e.Node(slot).Profile.Comp)); cap(st.remotes) < nsides {
		st.remotes = arena.Carve(&p.arena, nsides)
	}
	// Fresh-join semantics: desync the state so the next Refresh re-syncs
	// it against the node's (possibly new) profile. Belief storage is kept.
	st.epoch = ^uint32(0)
	st.comp = 0
	st.remotes = st.remotes[:0]
}

// SnapshotSlot implements sim.Protocol: the slot's belief-table sync
// key (epoch, component) and its remote-manager beliefs per link side.
func (p *PortConnect) SnapshotSlot(w *snap.Writer, slot int) {
	st := &p.states[slot]
	w.U32(st.epoch)
	w.Varint(int64(st.comp))
	writeRecords(w, st.remotes)
}

// RestoreSlot implements sim.Protocol.
func (p *PortConnect) RestoreSlot(r *snap.Reader, slot int) error {
	epoch := r.U32()
	comp := view.ComponentID(r.Varint())
	remotes := readRecordsInto(r, nil)
	if err := r.Err(); err != nil {
		return err
	}
	p.states[slot] = connState{epoch: epoch, comp: comp, remotes: remotes}
	return nil
}

// Remote returns the node's belief about the far-end manager of the given
// link side (an index into Allocator.Sides).
func (p *PortConnect) Remote(slot int, side int) PortRecord {
	if slot >= len(p.states) {
		return invalidRecord()
	}
	st := &p.states[slot]
	for pos, si := range p.alloc.SidesOf(st.comp) {
		if si == side && pos < len(st.remotes) {
			return st.remotes[pos]
		}
	}
	return invalidRecord()
}

// reset re-syncs a belief table with the node's profile. It is reached from
// the parallel Refresh phase, so it must not grow the shared arena: a row
// wider than InitNode carved is a private heap copy.
func (p *PortConnect) reset(n *sim.Node, st *connState) {
	st.epoch = n.Profile.Epoch
	st.comp = n.Profile.Comp
	nsides := len(p.alloc.SidesOf(n.Profile.Comp))
	if cap(st.remotes) < nsides {
		st.remotes = make([]PortRecord, nsides)
	}
	st.remotes = st.remotes[:nsides]
	for i := range st.remotes {
		st.remotes[i] = invalidRecord()
	}
}

// Refresh implements sim.Protocol: re-sync the belief table with the node's
// current profile.
func (p *PortConnect) Refresh(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	st := &p.states[slot]
	if st.epoch != self.Profile.Epoch || st.comp != self.Profile.Comp {
		p.reset(self, st)
	}
}

// Plan implements sim.Protocol: for every link side this node currently
// manages, query one contact in the remote component for the far-end
// manager. Beliefs are slot-private, so they are adopted in place, and the
// wire bytes land in the worker's meter shard as the lookups happen.
func (p *PortConnect) Plan(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	st := &p.states[slot]
	sides := p.alloc.SidesOf(self.Profile.Comp)
	if len(sides) == 0 {
		return
	}
	now := ctx.Round()
	for pos, si := range sides {
		side := p.alloc.Sides()[si]
		// Only the (believed) manager of the local port drives the link.
		belief := p.ports.Belief(slot, side.Port)
		if belief.ID != self.ID {
			st.remotes[pos] = invalidRecord()
			continue
		}
		r := &st.remotes[pos]
		if r.Valid() && now-r.Stamp > portTTL {
			*r = invalidRecord()
		}
		p.resolve(ctx, slot, self, side, r)
	}
}

// Absorb implements sim.Protocol: nothing to fold — lookups are
// query/response only, nothing is pushed to the queried node.
func (p *PortConnect) Absorb(ctx *sim.Ctx) {}

// resolve performs one lookup round-trip for a link side.
func (p *PortConnect) resolve(ctx *sim.Ctx, slot int, self *sim.Node, side LinkSide, r *PortRecord) {
	e := ctx.Engine()
	if side.RemoteComp == self.Profile.Comp {
		// A link between two ports of the same component: port selection
		// already gossips every port of the component to every member, so
		// the answer is local and free.
		if answer := p.ports.Belief(slot, side.RemotePort); answer.Valid() {
			adoptBelief(r, answer)
		}
		return
	}
	contact, ok := p.contactIn(ctx, slot, self, side.RemoteComp)
	if !ok {
		return
	}
	ctx.Count(sim.PortQueryPayload())
	target := e.Lookup(contact.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		return
	}
	// The contact answers with its current belief for the remote port —
	// provided it is (still) a member of the remote component.
	if target.Profile.Comp != side.RemoteComp || target.Profile.Epoch != self.Profile.Epoch {
		return
	}
	answer := p.ports.Belief(target.Slot, side.RemotePort)
	if !answer.Valid() || ctx.Round()-answer.Stamp > portTTL {
		return
	}
	ctx.Count(sim.PortRecordPayload(1))
	adoptBelief(r, answer)
}

// adoptBelief folds an answer into a remote-manager belief: better claims
// win, equal claims keep the freshest stamp.
func adoptBelief(r *PortRecord, answer PortRecord) {
	switch {
	case answer.Better(*r):
		*r = answer
	case answer.ID == r.ID && answer.Stamp > r.Stamp:
		r.Stamp = answer.Stamp
	}
}

// contactIn finds a contact inside the given (distant) component: normally
// the UO2 contact; the peer-sampling view serves as a last-resort bootstrap
// (and as the only path in the UO2-disabled ablation).
func (p *PortConnect) contactIn(ctx *sim.Ctx, slot int, self *sim.Node, comp view.ComponentID) (view.Descriptor, bool) {
	if p.uo2 != nil {
		if d, ok := p.uo2.Contact(slot, comp); ok {
			return d, true
		}
	}
	// Fallback: scan the sampling view for a member of the component,
	// filtering into the worker's scratch pad.
	pad := ctx.Pad()
	v := p.rps.View(slot)
	matches := pad.Same[:0]
	for i := 0; i < v.Len(); i++ {
		if d := v.At(i); d.Profile.Comp == comp && d.Profile.Epoch == self.Profile.Epoch {
			matches = append(matches, d)
		}
	}
	pad.Same = matches
	if len(matches) > 0 {
		return matches[ctx.Rand().Intn(len(matches))], true
	}
	return view.Descriptor{}, false
}
