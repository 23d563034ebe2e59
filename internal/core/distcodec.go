package core

// Distributed plan codecs for the runtime-layer protocols: UO2's table
// swaps and PortSelect's record exchanges cross process boundaries the same
// way the shape protocols' plans do. PortConnect plans are deliberately
// absent — it routes nothing (its Plan mutates only its own slot's
// beliefs), so a distributed round plans it replicated on every process.
// The engine owns the record frame and the route lane (Engine.EncodePlans
// / Engine.DecodePlans); these codecs write and read one record's body.

import (
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

var (
	_ sim.PlanCodec = (*UO2)(nil)
	_ sim.PlanCodec = (*PortSelect)(nil)
)

// EncodePlan implements sim.PlanCodec: the timeout flag, the slot's
// published table (a remote initiator that picked this slot reads its
// reply from there) and, after a timeout, the suspected partner.
func (u *UO2) EncodePlan(w *snap.Writer, slot int, region []view.Descriptor) {
	pl := &u.plans[slot]
	w.Bool(pl.timeout)
	snap.WriteDescriptors(w, region[:pl.nsend])
	if pl.timeout {
		snap.WriteDescriptor(w, pl.partner)
	}
}

// DecodePlan implements sim.PlanCodec.
func (u *UO2) DecodePlan(r *snap.Reader, slot int, region []view.Descriptor) error {
	pl := &u.plans[slot]
	pl.timeout = r.Bool()
	pl.nsend = int32(snap.ReadDescriptorsWithin(r, region[:u.PlanWidth()]))
	if pl.timeout {
		pl.partner = snap.ReadDescriptor(r)
	}
	return nil
}

// PlanWidth implements sim.PlanCodec: the published records are port
// records, kept in PortSelect's own per-slot tables, not in the plan
// region.
func (p *PortSelect) PlanWidth() int { return 0 }

// EncodePlan implements sim.PlanCodec: the slot's published records, which
// a remote initiator that picked this slot reads as its reply.
func (p *PortSelect) EncodePlan(w *snap.Writer, slot int, _ []view.Descriptor) {
	writeRecords(w, p.published[slot])
}

// DecodePlan implements sim.PlanCodec.
func (p *PortSelect) DecodePlan(r *snap.Reader, slot int, _ []view.Descriptor) error {
	p.published[slot] = readRecordsInto(r, p.published[slot][:0])
	return nil
}
