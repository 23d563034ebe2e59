package vicinity

// Distributed plan codec: ships one shard's vicinityPlan records across
// processes. Each overlay instance (uo1, core) is its own routing protocol,
// so each encodes and decodes independently. The engine owns
// the record frame; this codec writes and reads one record's body.

import (
	"fmt"

	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

var _ sim.PlanCodec = (*Protocol)(nil)

// EncodePlan implements sim.PlanCodec.
func (p *Protocol) EncodePlan(w *snap.Writer, slot int, region []view.Descriptor) {
	pl := &p.plans[slot]
	w.Int(int(pl.kind))
	switch pl.kind {
	case planTimeout:
		w.Varint(int64(pl.partner))
	case planDelivered:
		send, reply := p.payloads(region)
		w.Varint(int64(pl.partner))
		snap.WriteDescriptors(w, send[:pl.nsend])
		snap.WriteDescriptors(w, reply[:pl.nreply])
	}
}

// DecodePlan implements sim.PlanCodec.
func (p *Protocol) DecodePlan(r *snap.Reader, slot int, region []view.Descriptor) error {
	pl := &p.plans[slot]
	kind := r.Int()
	switch kind {
	case planNone:
	case planTimeout:
		pl.partner = view.NodeID(r.Varint())
	case planDelivered:
		send, reply := p.payloads(region)
		pl.partner = view.NodeID(r.Varint())
		pl.nsend = int32(snap.ReadDescriptorsWithin(r, send))
		pl.nreply = int32(snap.ReadDescriptorsWithin(r, reply))
	default:
		return fmt.Errorf("vicinity %s: unknown plan kind %d", p.name, kind)
	}
	pl.kind = uint8(kind)
	return nil
}
