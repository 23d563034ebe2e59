package core

import (
	"fmt"

	"sosf/internal/arena"
	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// UO2 is the distant-component overlay: every node maintains at most one
// fresh contact inside each *other* component. These long-distance links
// are what port connection routes through, and they give the assembled
// system a small inter-component diameter.
//
// The table is gossiped whole (component count is small — the paper
// evaluates up to 20), merged freshest-wins per component, and fed by the
// peer-sampling service so newly appeared components are discovered
// without any coordination.
//
// Freshness is tracked as an absolute birth round (the wire format still
// carries a relative age; it is normalized against the local clock at
// receipt). Relative ages merged fresher-wins between nodes at different
// points of a round can ping-pong forever without growing, keeping dead
// contacts immortal; a birth round is monotone.
type UO2 struct {
	alloc *Allocator
	rps   *peersampling.Protocol
	// states holds the per-slot contact tables as dense struct-of-arrays
	// state: headers in one contiguous slice, entry rows carved from a
	// shared arena.
	states     []uo2State
	entryArena []uo2Entry
	plans      []uo2Plan
}

// uo2State is one node's contact table, dense by component ID: component
// IDs are small and densely assigned, so a slice beats a map — iteration
// is ascending (deterministic) for free, and the steady state allocates
// nothing. Entries for components dropped by a reconfiguration linger,
// exactly like the stale keys of a map, until the owner's next prune.
type uo2State struct {
	entries []uo2Entry // indexed by ComponentID
	count   int        // number of valid entries
}

// uo2Entry is one row of a contact table. An empty row holds
// view.InvalidNode as its descriptor's ID (see emptyEntry), so the row
// needs no separate valid flag.
type uo2Entry struct {
	d    view.Descriptor
	born int // engine round the descriptor was (age-adjusted) created
}

// emptyEntry is the value of an empty contact-table row.
var emptyEntry = uo2Entry{d: view.Descriptor{ID: view.InvalidNode}}

// valid reports whether the row holds a contact.
func (e *uo2Entry) valid() bool { return e.d.ID != view.InvalidNode }

// uo2Plan is one node's planned table swap for the current round. The
// node's own serialized table is published, into the slot's plan region
// (sim.Ctx.PlanRegion), by every alive slot's Plan whether or not it starts
// a swap: it is both what the node pushes to its partner and the reply any
// initiator that picked this node reads in Absorb, once the Plan barrier
// has frozen it; the record keeps its length, nsend. A delivered swap is
// recorded by its route lane alone; the plan records only a timed-out one.
type uo2Plan struct {
	partner view.Descriptor // the timed-out partner, whole: Absorb needs its component
	nsend   int32
	timeout bool
}

// ensure grows the table to cover at least n components. It never shrinks:
// out-of-range entries must survive until prune drops them, mirroring the
// map-based table's behavior across reconfigurations.
func (t *uo2State) ensure(n int) {
	for len(t.entries) < n {
		t.entries = append(t.entries, emptyEntry)
	}
}

// reset empties the table, keeping its storage.
func (t *uo2State) reset() {
	for i := range t.entries {
		t.entries[i] = emptyEntry
	}
	t.count = 0
}

var _ sim.Protocol = (*UO2)(nil)

// uo2MaxAge bounds, in rounds, how long a distant-component contact that is
// not refreshed (a dead one) can linger in a table.
const uo2MaxAge = 20

// NewUO2 creates the distant-component overlay.
func NewUO2(alloc *Allocator, rps *peersampling.Protocol) *UO2 {
	return &UO2{alloc: alloc, rps: rps}
}

// Name implements sim.Protocol.
func (u *UO2) Name() string { return "uo2" }

// Resize implements sim.Protocol: it sizes the per-slot storage to n slots
// without resetting any table.
func (u *UO2) Resize(n int) {
	for len(u.states) < n {
		// The contact table is carved one row per component (a
		// reconfigure that adds components falls back to a private heap
		// copy).
		u.plans = append(u.plans, uo2Plan{})
		u.states = append(u.states, uo2State{entries: arena.Carve(&u.entryArena, u.alloc.Components())})
	}
	u.states = u.states[:n]
	u.plans = u.plans[:n]
}

// PlanWidth implements sim.PlanCodec: a published table carries at most
// one descriptor per component plus the sender's own. It grows when a
// reconfiguration adds components, and the engine re-reads it every round.
func (u *UO2) PlanWidth() int { return u.alloc.Components() + 1 }

// InitNode implements sim.Protocol.
func (u *UO2) InitNode(e *sim.Engine, slot int) {
	u.states[slot].reset()
}

// SnapshotSlot implements sim.Protocol: the slot's dense contact table
// — valid flags, descriptors, and absolute birth rounds (which can go
// negative under timeout suspicion, hence the signed encoding).
func (u *UO2) SnapshotSlot(w *snap.Writer, slot int) {
	t := &u.states[slot]
	w.Len(len(t.entries))
	for ci := range t.entries {
		entry := &t.entries[ci]
		w.Bool(entry.valid())
		if entry.valid() {
			snap.WriteDescriptor(w, entry.d)
			w.Int(entry.born)
		}
	}
}

// RestoreSlot implements sim.Protocol.
func (u *UO2) RestoreSlot(r *snap.Reader, slot int) error {
	width := r.Len()
	// Rows are appended as they arrive, so a corrupt width costs nothing
	// until its rows are really there.
	st := &u.states[slot]
	st.entries, st.count = st.entries[:0], 0
	for ci := 0; ci < width; ci++ {
		row := emptyEntry
		if r.Bool() {
			row = uo2Entry{d: snap.ReadDescriptor(r), born: r.Int()}
			if r.Err() == nil && !row.valid() {
				return fmt.Errorf("uo2: slot %d holds a contact with no node ID", slot)
			}
			st.count++
		}
		if err := r.Err(); err != nil {
			return err
		}
		st.entries = append(st.entries, row)
	}
	return nil
}

// Contact returns the node's contact inside the given component, if any.
func (u *UO2) Contact(slot int, comp view.ComponentID) (view.Descriptor, bool) {
	t := &u.states[slot]
	if comp < 0 || int(comp) >= len(t.entries) || !t.entries[comp].valid() {
		return view.Descriptor{}, false
	}
	return t.entries[comp].d, true
}

// Coverage returns how many distinct foreign components the node currently
// has a contact in.
func (u *UO2) Coverage(slot int) int { return u.states[slot].count }

// Refresh implements sim.Protocol: prune the table and ingest the free
// candidates the sampling layer gathered, read in place. Slot-local only.
func (u *UO2) Refresh(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	t := &u.states[slot]
	now := ctx.Round()

	u.prune(self, t, now)

	rv := u.rps.View(slot)
	for i := 0; i < rv.Len(); i++ {
		u.offer(self, t, rv.At(i), now)
	}
}

// Plan implements sim.Protocol: publish the slot's post-refresh table, then
// pick a partner. The partner's reply is its own published table, read in
// Absorb; here it is only metered.
func (u *UO2) Plan(ctx *sim.Ctx) {
	slot := ctx.Slot()
	e := ctx.Engine()
	t := &u.states[slot]
	pl := &u.plans[slot]
	pl.timeout = false
	send := u.tableToSend(ctx.Node(), t, ctx.Round(), ctx.PlanRegion(slot)[:0])
	pl.nsend = int32(len(send))

	partner, ok := u.pickPartner(ctx, slot, t)
	if !ok {
		return
	}

	// Meter into the worker's shard and route via the sender's lane; the
	// engine's Deliver phase merges lanes per destination shard.
	ctx.Count(sim.DescriptorPayload(len(send)))
	target := e.Lookup(partner.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		pl.timeout, pl.partner = true, partner
		return
	}
	// The reply is the target's table plus its own descriptor, exactly
	// what the target's Plan publishes.
	ctx.Count(sim.DescriptorPayload(1 + u.states[target.Slot].count))
	ctx.Route(target.Slot)
}

// Absorb implements sim.Protocol: fold the received tables into the slot's
// own — the reply to its own swap (or the timeout suspicion), then every
// table that reached it as the passive side, in sender order. The reply is
// read from the slot the swap was routed to: the route lane, set exactly
// when the swap was delivered, is the one record of the partner's slot.
func (u *UO2) Absorb(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	t := &u.states[slot]
	now := ctx.Round()
	pl := &u.plans[slot]
	if pl.timeout {
		// Suspect the contact: push its birth into the past so dead
		// contacts expire quickly while contacts behind a lossy link
		// survive (a fresher descriptor restores them).
		if c := pl.partner.Profile.Comp; c >= 0 && int(c) < len(t.entries) {
			if entry := &t.entries[c]; entry.valid() && entry.d.ID == pl.partner.ID {
				entry.born -= uo2MaxAge/4 + 1
			}
		}
	}
	if target := ctx.Target(); target >= 0 {
		for _, d := range ctx.PlanRegion(target)[:u.plans[target].nsend] {
			u.offer(self, t, d, now)
		}
	}
	for sender := ctx.FirstSender(); sender >= 0; sender = ctx.NextSender(sender) {
		for _, d := range ctx.PlanRegion(sender)[:u.plans[sender].nsend] {
			u.offer(self, t, d, now)
		}
	}
}

// prune drops expired or stale entries.
func (u *UO2) prune(self *sim.Node, t *uo2State, now int) {
	epoch := u.alloc.Epoch()
	for ci := range t.entries {
		entry := &t.entries[ci]
		if !entry.valid() {
			continue
		}
		c := view.ComponentID(ci)
		if now-entry.born > uo2MaxAge || entry.d.Profile.Epoch != epoch ||
			entry.d.Profile.Comp != c || int(c) >= u.alloc.Components() ||
			c == self.Profile.Comp {
			*entry = emptyEntry
			t.count--
		}
	}
}

// offer proposes a descriptor for the table: foreign, current-epoch,
// unexpired entries are adopted when the slot for their component is empty
// or holds an older birth.
func (u *UO2) offer(self *sim.Node, t *uo2State, d view.Descriptor, now int) {
	born := now - int(d.Age)
	if d.ID == self.ID || d.ID == view.InvalidNode || d.Profile.Comp == self.Profile.Comp ||
		d.Profile.Comp < 0 || int(d.Profile.Comp) >= u.alloc.Components() ||
		d.Profile.Epoch != u.alloc.Epoch() || now-born > uo2MaxAge {
		return
	}
	t.ensure(int(d.Profile.Comp) + 1)
	cur := &t.entries[d.Profile.Comp]
	if !cur.valid() || born > cur.born ||
		(d.ID == cur.d.ID && d.Profile.Epoch > cur.d.Profile.Epoch) {
		if !cur.valid() {
			t.count++
		}
		*cur = uo2Entry{d: d, born: born}
	}
}

// tableToSend serializes the node's table plus its own fresh descriptor
// into dst, normalizing births back to wire ages.
func (u *UO2) tableToSend(n *sim.Node, t *uo2State, now int, dst []view.Descriptor) []view.Descriptor {
	dst = append(dst, n.Descriptor())
	for ci := range t.entries {
		entry := &t.entries[ci]
		if !entry.valid() {
			continue
		}
		d := entry.d
		if age := now - entry.born; age > 0 {
			if age > int(^uint16(0)) {
				age = int(^uint16(0))
			}
			d.Age = uint16(age)
		} else {
			d.Age = 0
		}
		dst = append(dst, d)
	}
	return dst
}

// pickPartner gossips with a random table entry, falling back to a random
// sampled peer when the table is empty (bootstrap).
func (u *UO2) pickPartner(ctx *sim.Ctx, slot int, t *uo2State) (view.Descriptor, bool) {
	rng := ctx.Rand()
	// Half the time talk to a random peer: UO2 benefits from global
	// mixing because fresh entries for *any* component can come from
	// anywhere.
	if t.count == 0 || rng.Float64() < 0.5 {
		if d, ok := u.rps.View(slot).Random(rng); ok {
			return d, true
		}
	}
	if t.count == 0 {
		return view.Descriptor{}, false
	}
	// The pick-th valid entry in ascending component order — the same
	// draw the sorted-keys map implementation made.
	pick := rng.Intn(t.count)
	for ci := range t.entries {
		if !t.entries[ci].valid() {
			continue
		}
		if pick == 0 {
			return t.entries[ci].d, true
		}
		pick--
	}
	return view.Descriptor{}, false // unreachable: count > 0
}
