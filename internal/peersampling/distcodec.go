package peersampling

// Distributed plan codec: ships one shard's cyclonPlan records across
// processes so a remote replica can absorb this shard's shuffles exactly as
// if it had planned them locally. The engine owns the record frame; this
// codec writes and reads one record's body, and only the fields each kind's
// Absorb path (active side and, via the routing, passive side) reads.

import (
	"fmt"

	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

var _ sim.PlanCodec = (*Protocol)(nil)

// EncodePlan implements sim.PlanCodec.
func (p *Protocol) EncodePlan(w *snap.Writer, slot int) {
	pl := &p.plans[slot]
	w.Int(pl.kind)
	switch pl.kind {
	case planBoot:
		snap.WriteDescriptor(w, pl.boot)
	case planTimeout:
		w.Varint(int64(pl.partner))
	case planDelivered:
		w.Varint(int64(pl.partner))
		snap.WriteDescriptors(w, pl.send)
		snap.WriteDescriptors(w, pl.reply)
	}
}

// DecodePlan implements sim.PlanCodec.
func (p *Protocol) DecodePlan(r *snap.Reader, slot int) error {
	pl := &p.plans[slot]
	pl.kind = r.Int()
	switch pl.kind {
	case planNone:
	case planBoot:
		pl.boot = snap.ReadDescriptor(r)
	case planTimeout:
		pl.partner = view.NodeID(r.Varint())
	case planDelivered:
		pl.partner = view.NodeID(r.Varint())
		pl.send = snap.ReadDescriptorsInto(r, pl.send[:0])
		pl.reply = snap.ReadDescriptorsInto(r, pl.reply[:0])
	default:
		return fmt.Errorf("peersampling: unknown plan kind %d", pl.kind)
	}
	return nil
}
