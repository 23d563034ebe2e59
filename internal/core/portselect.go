package core

import (
	"sosf/internal/arena"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/vicinity"
	"sosf/internal/view"
)

// PortRecord is one port-election entry: the best-known candidate for a
// port, its election score, and the round of the candidate's most recent
// heartbeat. The manager refreshes its own records every round; when it
// dies its stamp freezes, the record expires everywhere within the TTL,
// and the next-best candidate takes over.
//
// Freshness is an absolute stamp rather than a relative age on purpose:
// relative ages that are min-merged between nodes at different points of a
// round can circulate forever without growing (two nodes can keep handing
// each other the "young" copy), whereas a frozen stamp is monotone — the
// wire equivalent in a deployed system is an incarnation/sequence number.
type PortRecord struct {
	Score uint64
	ID    view.NodeID
	Stamp int
}

// Valid reports whether the record holds a candidate.
func (r PortRecord) Valid() bool { return r.ID != view.InvalidNode }

// Better reports whether r is a strictly better election claim than other:
// lower score wins, ties broken by lower node ID.
func (r PortRecord) Better(other PortRecord) bool {
	if !other.Valid() {
		return r.Valid()
	}
	if !r.Valid() {
		return false
	}
	if r.Score != other.Score {
		return r.Score < other.Score
	}
	return r.ID < other.ID
}

// invalidRecord is the empty election slot.
func invalidRecord() PortRecord { return PortRecord{ID: view.InvalidNode} }

// PortSelect is the port-selection sub-procedure: a gossip min-election
// run inside each component. Every member is a candidate for every port of
// its component with a deterministic hash score; members gossip their
// per-port best-known records over same-component contacts (from the core
// overlay and UO1), so all members converge on the alive member with the
// minimum score — the port's manager.
type PortSelect struct {
	alloc *Allocator
	uo1   *vicinity.Protocol
	core  *vicinity.Protocol

	// states holds the per-slot election state as dense struct-of-arrays
	// state: headers in one contiguous slice, record rows carved from the
	// shared arena.
	states []portState
	// published[slot] snapshots the slot's post-refresh records at plan
	// time (the live tables mutate during Absorb) into a per-slot
	// retained buffer. Every alive slot's Plan publishes it, so an
	// initiator reads its partner's reply from the partner's own row
	// instead of copying it, and the route lane alone records whether the
	// exchange was delivered.
	published [][]PortRecord
	arena     []PortRecord
}

type portState struct {
	epoch   uint32
	comp    view.ComponentID
	records []PortRecord // indexed by port
}

var (
	_ sim.Protocol    = (*PortSelect)(nil)
	_ sim.Snapshotter = (*PortSelect)(nil)
)

// portTTL bounds port-manager failover latency in rounds: a port record, or
// a remote manager belief, whose stamp is older than this is dropped. It
// must comfortably exceed the gossip staleness tail (a record's stamp is
// only as fresh as the exchange chain that delivered it), or live managers
// flicker out between refreshes.
const portTTL = 20

// NewPortSelect creates the port-selection protocol.
func NewPortSelect(alloc *Allocator, uo1, core *vicinity.Protocol) *PortSelect {
	return &PortSelect{alloc: alloc, uo1: uo1, core: core}
}

// Name implements sim.Protocol.
func (p *PortSelect) Name() string { return "portselect" }

// Resize implements sim.Protocol: it sizes the per-slot storage to n
// slots. The rows themselves depend on the node's port count, so InitNode
// and RestoreSlot carve them.
func (p *PortSelect) Resize(n int) {
	for len(p.states) < n {
		p.states = append(p.states, portState{epoch: ^uint32(0)})
		p.published = append(p.published, nil)
	}
	p.states = p.states[:n]
	p.published = p.published[:n]
}

// InitNode implements sim.Protocol.
func (p *PortSelect) InitNode(e *sim.Engine, slot int) {
	// The record row and its published snapshot are bounded by the
	// node's port count; carve them from a chunked arena here, at the
	// serial barrier (profile is assigned before InitNode runs, so the
	// component is known; a reconfiguration that adds ports falls back
	// to a private heap copy).
	st := &p.states[slot]
	width := int(p.alloc.Ports(e.Node(slot).Profile.Comp))
	if cap(p.published[slot]) < width {
		p.published[slot] = arena.Carve(&p.arena, width)
	}
	if cap(st.records) < width {
		st.records = arena.Carve(&p.arena, width)
	}
	// Fresh-join semantics: desync the state so the next Refresh re-syncs
	// it against the node's (possibly new) profile. Record storage is kept.
	st.epoch = ^uint32(0)
	st.comp = 0
	st.records = st.records[:0]
}

// SnapshotSlot implements sim.Snapshotter: the slot's election-state sync
// key (epoch, component) and its per-port best-known records.
func (p *PortSelect) SnapshotSlot(w *snap.Writer, slot int) {
	st := &p.states[slot]
	w.U32(st.epoch)
	w.Varint(int64(st.comp))
	writeRecords(w, st.records)
}

// RestoreSlot implements sim.Snapshotter. The published row is carved to
// the restored record width, as InitNode carves it to the port count.
func (p *PortSelect) RestoreSlot(r *snap.Reader, slot int) error {
	epoch := r.U32()
	comp := view.ComponentID(r.Varint())
	records := readRecordsInto(r, nil)
	if err := r.Err(); err != nil {
		return err
	}
	if cap(p.published[slot]) < len(records) {
		p.published[slot] = arena.Carve(&p.arena, len(records))
	}
	p.states[slot] = portState{epoch: epoch, comp: comp, records: records}
	return nil
}

// writeRecords encodes a PortRecord slice (shared with PortConnect).
func writeRecords(w *snap.Writer, records []PortRecord) {
	w.Len(len(records))
	for _, rec := range records {
		w.U64(rec.Score)
		w.Varint(int64(rec.ID))
		w.Int(rec.Stamp)
	}
}

// readRecordsInto decodes a writeRecords slice appending into dst: the
// per-slot plan buffers reuse theirs, and a restore passes nil so storage
// grows only as records arrive (a corrupt count reserves nothing). A
// failed read stops the loop; the caller checks r.Err().
func readRecordsInto(r *snap.Reader, dst []PortRecord) []PortRecord {
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, PortRecord{
			Score: r.U64(),
			ID:    view.NodeID(r.Varint()),
			Stamp: r.Int(),
		})
	}
	return dst
}

// Belief returns the node's current best-known record for the given port
// of its own component.
func (p *PortSelect) Belief(slot int, port int32) PortRecord {
	if slot >= len(p.states) {
		return invalidRecord()
	}
	st := &p.states[slot]
	if int(port) >= len(st.records) {
		return invalidRecord()
	}
	return st.records[port]
}

// reset re-syncs the node's election state with its current profile
// (fresh join, reconfiguration, or component move).
func (p *PortSelect) reset(n *sim.Node, st *portState) {
	st.epoch = n.Profile.Epoch
	st.comp = n.Profile.Comp
	nports := int(p.alloc.Ports(n.Profile.Comp))
	if cap(st.records) < nports {
		st.records = make([]PortRecord, nports)
	} else {
		st.records = st.records[:nports]
	}
	for i := range st.records {
		st.records[i] = invalidRecord()
	}
}

// Refresh implements sim.Protocol: re-sync with the node's profile, expire
// records whose candidate stopped heartbeating, claim any port this node
// scores better on, and heartbeat ports it currently holds. Slot-local.
func (p *PortSelect) Refresh(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	st := &p.states[slot]
	if st.epoch != self.Profile.Epoch || st.comp != self.Profile.Comp {
		p.reset(self, st)
	}
	now := ctx.Round()
	for i := range st.records {
		r := &st.records[i]
		if r.Valid() && now-r.Stamp > portTTL {
			*r = invalidRecord()
		}
		mine := PortRecord{
			Score: electionScore(self.Profile.Comp, int32(i), self.Profile.Epoch, self.ID),
			ID:    self.ID,
			Stamp: now,
		}
		switch {
		case mine.Better(*r):
			*r = mine
		case r.ID == self.ID:
			r.Stamp = now
		}
	}
}

// Plan implements sim.Protocol: publish the slot's records and pick a
// same-component partner. Every node refreshed (and re-synced) before any
// plan runs, so the partner's published records are post-reset; Absorb
// reads them as the reply.
func (p *PortSelect) Plan(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	e := ctx.Engine()
	st := &p.states[slot]
	p.published[slot] = append(p.published[slot][:0], st.records...)
	if len(st.records) == 0 {
		return
	}

	// Gossip over UO1 first: UO1's pairwise-randomized ranking makes it an
	// expander-like graph inside the component, so election records and
	// heartbeat stamps diffuse in O(log n) rounds. The core view is only a
	// fallback — shapes like rings or lines have diameter O(n), and
	// freshness crawling around a cycle would blow every TTL.
	partner, ok := sameCompContact(ctx, slot, self, p.uo1, p.core)
	if !ok {
		return
	}
	// The request bytes are spent even when the exchange is lost or
	// answered by a mismatched node; metered into the worker's shard.
	ctx.Count(sim.PortRecordPayload(len(st.records)))
	target := e.Lookup(partner.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		return
	}
	if target.Profile.Comp != self.Profile.Comp || target.Profile.Epoch != self.Profile.Epoch {
		return // raced with a reconfiguration; nothing to merge
	}
	ctx.Count(sim.PortRecordPayload(len(p.states[target.Slot].records)))
	ctx.Route(target.Slot)
}

// Absorb implements sim.Protocol: fold the snapshots received this round
// into the slot's live records — the partner's reply first, then every
// record set that reached it as the passive side, in sender order. The
// reply is read from the slot the exchange was routed to, which is set
// exactly when the exchange was delivered.
func (p *PortSelect) Absorb(ctx *sim.Ctx) {
	st := &p.states[ctx.Slot()]
	now := ctx.Round()
	if target := ctx.Target(); target >= 0 {
		mergeRecords(st.records, p.published[target], now)
	}
	for sender := ctx.FirstSender(); sender >= 0; sender = ctx.NextSender(sender) {
		mergeRecords(st.records, p.published[sender], now)
	}
}

// mergeRecords folds src into dst: better claims win; equal claims keep
// the freshest stamp. Records that are already expired are never adopted —
// otherwise an obsolete claim can keep circulating as a wave, each holder
// expiring it locally while re-infecting peers that already had.
func mergeRecords(dst, src []PortRecord, now int) {
	for i := range dst {
		if i >= len(src) || !src[i].Valid() || now-src[i].Stamp > portTTL {
			continue
		}
		switch {
		case src[i].Better(dst[i]):
			dst[i] = src[i]
		case src[i].ID == dst[i].ID && src[i].Stamp > dst[i].Stamp:
			dst[i].Stamp = src[i].Stamp
		}
	}
}

// sameCompContact picks a random same-component, same-epoch contact from
// the node's core view, falling back to UO1. The candidate filter runs on
// the worker's scratch pad — no per-call slice, no view mutation.
func sameCompContact(ctx *sim.Ctx, slot int, self *sim.Node, sources ...*vicinity.Protocol) (view.Descriptor, bool) {
	pad := ctx.Pad()
	for _, src := range sources {
		if src == nil {
			continue
		}
		v := src.View(slot)
		same := pad.Same[:0]
		for i := 0; i < v.Len(); i++ {
			d := v.At(i)
			if d.Profile.Comp == self.Profile.Comp && d.Profile.Epoch == self.Profile.Epoch {
				same = append(same, d)
			}
		}
		pad.Same = same
		if len(same) > 0 {
			return same[ctx.Rand().Intn(len(same))], true
		}
	}
	return view.Descriptor{}, false
}
