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
func (p *Protocol) EncodePlan(w *snap.Writer, slot int, region []view.Descriptor) {
	pl := &p.plans[slot]
	w.Int(int(pl.kind))
	switch pl.kind {
	case planBoot:
		snap.WriteDescriptor(w, pl.boot)
	case planTimeout:
		w.Varint(int64(pl.partner))
	case planDelivered:
		send, reply := payloads(region)
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
	case planBoot:
		pl.boot = snap.ReadDescriptor(r)
	case planTimeout:
		pl.partner = view.NodeID(r.Varint())
	case planDelivered:
		send, reply := payloads(region)
		pl.partner = view.NodeID(r.Varint())
		pl.nsend = uint8(snap.ReadDescriptorsWithin(r, send))
		pl.nreply = uint8(snap.ReadDescriptorsWithin(r, reply))
	default:
		return fmt.Errorf("peersampling: unknown plan kind %d", kind)
	}
	pl.kind = uint8(kind)
	return nil
}
