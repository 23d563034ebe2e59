package core

// Distributed plan codecs for the runtime-layer protocols: UO2's table
// swaps and PortSelect's record exchanges cross process boundaries the same
// way the shape protocols' plans do. PortConnect plans are deliberately
// absent — it owns no inbox (its Plan mutates only its own slot's beliefs),
// so a distributed round plans it replicated on every process.

import (
	"fmt"

	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

var (
	_ sim.PlanCodec = (*UO2)(nil)
	_ sim.PlanCodec = (*PortSelect)(nil)
)

// EncodePlans implements sim.PlanCodec. Every record carries the slot's
// published table, whatever its kind: a remote initiator that picked this
// slot reads its reply from there.
func (u *UO2) EncodePlans(w *snap.Writer, slots []int) {
	w.Len(len(slots))
	for _, slot := range slots {
		pl := &u.plans[slot]
		w.Int(slot)
		w.Int(pl.kind)
		snap.WriteDescriptors(w, pl.send)
		switch pl.kind {
		case uo2Timeout:
			snap.WriteDescriptor(w, pl.partner)
		case uo2Delivered:
			w.Int(pl.targetSlot)
		}
	}
}

// DecodePlans implements sim.PlanCodec.
func (u *UO2) DecodePlans(e *sim.Engine, r *snap.Reader) error {
	n := r.Len()
	size := e.Size()
	for i := 0; i < n; i++ {
		slot := r.Int()
		kind := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if slot < 0 || slot >= size || slot >= len(u.plans) {
			return fmt.Errorf("uo2: plan slot %d out of range [0,%d)", slot, size)
		}
		pl := &u.plans[slot]
		pl.kind = kind
		pl.send = snap.ReadDescriptorsInto(r, pl.send[:0])
		switch kind {
		case uo2None:
		case uo2Timeout:
			pl.partner = snap.ReadDescriptor(r)
		case uo2Delivered:
			pl.targetSlot = r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			if pl.targetSlot < 0 || pl.targetSlot >= size {
				return fmt.Errorf("uo2: plan target %d out of range [0,%d)", pl.targetSlot, size)
			}
			u.inbox.Push(pl.targetSlot, slot)
		default:
			return fmt.Errorf("uo2: unknown plan kind %d", kind)
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	return r.Err()
}

// EncodePlans implements sim.PlanCodec. Every record carries the slot's
// published records, whatever its kind: a remote initiator that picked
// this slot reads its reply from there.
func (p *PortSelect) EncodePlans(w *snap.Writer, slots []int) {
	w.Len(len(slots))
	for _, slot := range slots {
		pl := &p.plans[slot]
		w.Int(slot)
		w.Int(pl.kind)
		writeRecords(w, pl.send)
		if pl.kind == portDelivered {
			w.Int(pl.targetSlot)
		}
	}
}

// DecodePlans implements sim.PlanCodec.
func (p *PortSelect) DecodePlans(e *sim.Engine, r *snap.Reader) error {
	n := r.Len()
	size := e.Size()
	for i := 0; i < n; i++ {
		slot := r.Int()
		kind := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if slot < 0 || slot >= size || slot >= len(p.plans) {
			return fmt.Errorf("portselect: plan slot %d out of range [0,%d)", slot, size)
		}
		pl := &p.plans[slot]
		pl.kind = kind
		pl.send = readRecordsInto(r, pl.send[:0])
		switch kind {
		case portNone, portSent:
		case portDelivered:
			pl.targetSlot = r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			if pl.targetSlot < 0 || pl.targetSlot >= size {
				return fmt.Errorf("portselect: plan target %d out of range [0,%d)", pl.targetSlot, size)
			}
			p.inbox.Push(pl.targetSlot, slot)
		default:
			return fmt.Errorf("portselect: unknown plan kind %d", kind)
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	return r.Err()
}

// readRecordsInto decodes a writeRecords slice appending into dst — the
// reuse-friendly sibling of readRecords for the per-slot plan buffers.
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
