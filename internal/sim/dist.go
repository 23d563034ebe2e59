package sim

// Distributed rounds. A distributed run replicates the full engine state in
// every participating process (coordinator and workers alike) and shards
// only the Plan phase of the exchange-routing protocols: each process plans
// the slots of its contiguous shard, the planned records cross the wire at
// that protocol's Deliver barrier, and every process then imports the
// remote shards' records — rebuilding plan records and setting their route
// lanes — before running the (replicated) Deliver merge and Absorb phases
// over the whole population.
//
// Byte-identity at any shard count falls out of the same discipline that
// makes thread sharding invisible: every in-round draw comes from a
// counter-based per-(node, round, protocol, phase) stream, so a slot's Plan
// produces the same record no matter which process executes it, and the
// engine-driven Deliver merge scans senders in ascending slot order no
// matter which lanes were routed locally and which were imported. The
// serial RNG only moves between rounds, where every process replays the
// identical round-end hook against identical state.
//
// A protocol routes exchanges if and only if it implements PlanCodec, and
// exactly those protocols are sharded. The others mutate only their own
// slot's state in Plan, so they are planned replicated — every process
// runs them over all slots — and their meter counts are already global.
//
// # The plan-record frame
//
// The engine owns the framing of a shard's records and a codec owns only
// each record's body. Engine.EncodePlans writes
//
//	Len(records) { Int(slot) Int(lane) body }*
//
// where lane is the slot's route lane (the target its Plan routed to, or
// -1). Engine.DecodePlans reads it back: it range-checks every slot and
// every lane against the slot space and sets the lane, so no codec repeats
// those checks or carries the target itself. A malformed frame fails with
// an error wrapping ErrBadPlan.

import (
	"errors"
	"fmt"
	"sort"

	"sosf/internal/snap"
)

// PlanCodec is implemented by the protocols that route exchanges; the
// engine keeps a route table for each, and a distributed round shards
// their Plan phase across processes. EncodePlan writes the body of one
// slot's plan record: the fields that its own and its partners' Absorb
// read.
// DecodePlan reads one body back into the slot's plan record. DecodePlan
// may index its per-slot records by slot unchecked: the frame passes only
// slots below Size(), and the engine's Resize calls size the records to
// cover every such slot.
type PlanCodec interface {
	EncodePlan(w *snap.Writer, slot int)
	DecodePlan(r *snap.Reader, slot int) error
}

// ErrBadPlan is wrapped by every error DecodePlans returns for a malformed
// plan-record frame: a slot or lane outside the slot space, an unknown
// record kind, or a truncated body.
var ErrBadPlan = errors.New("sim: malformed plan record")

// EncodePlans writes the plan-record frame of routing protocol pi for the
// given slots (a shard of the alive population, in ascending slot order).
func (e *Engine) EncodePlans(pi int, w *snap.Writer, slots []int) {
	codec, box := e.protocols[pi].(PlanCodec), e.inboxes[pi]
	w.Len(len(slots))
	for _, slot := range slots {
		w.Int(slot)
		w.Int(int(box.planned[slot]))
		codec.EncodePlan(w, slot)
	}
}

// DecodePlans applies a frame of routing protocol pi encoded by a remote
// shard: it restores every record's plan and sets its route lane, exactly
// as the remote Plan did. It runs between the Plan and Deliver phases of
// pi, so the lanes are merged by the engine's own Deliver pass.
func (e *Engine) DecodePlans(pi int, r *snap.Reader) error {
	codec, box := e.protocols[pi].(PlanCodec), e.inboxes[pi]
	size := len(e.nodes)
	n := r.Len()
	for i := 0; i < n; i++ {
		slot, lane := r.Int(), r.Int()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: record %d of %d: %w", ErrBadPlan, i, n, err)
		}
		if slot < 0 || slot >= size {
			return fmt.Errorf("%w: slot %d out of range [0,%d)", ErrBadPlan, slot, size)
		}
		if lane < -1 || lane >= size {
			return fmt.Errorf("%w: slot %d lane %d out of range [-1,%d)", ErrBadPlan, slot, lane, size)
		}
		err := codec.DecodePlan(r, slot)
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return fmt.Errorf("%w: slot %d: %w", ErrBadPlan, slot, err)
		}
		box.planned[slot] = int32(lane)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadPlan, err)
	}
	return nil
}

// ShardExchange is the per-protocol barrier hook of a distributed round.
// The engine calls it after planning the local shard of routing protocol
// pi and before pi's Deliver merge; the implementation must ship the local
// shard's records to the other participants (EncodePlans), import every
// remote shard's records (DecodePlans), and exchange the protocol's
// Plan-phase meter delta (PlanBytes / AddPlanBytes) so every replica's
// meter stays global. An error aborts the round immediately.
type ShardExchange func(pi int, codec PlanCodec, shard []int) error

// RunRoundSharded executes one round with the Plan phase of every routing
// protocol restricted to the alive slots in [lo, hi), invoking exch at
// each such protocol's Deliver barrier. All other phases (and the Plan of
// protocols that route nothing) run over the whole alive population, so
// the caller must hold state identical to every other participant's. A nil
// exch runs a plain full round. The round barrier folds the meters and
// calls the round-end hook (SetRoundEnd) once; its stop is returned. On
// error the round is abandoned mid-flight, the hook is not called, and the
// engine must not be stepped again.
func (e *Engine) RunRoundSharded(lo, hi int, exch ShardExchange) (stop bool, err error) {
	alive := e.alive()
	e.ensureCtxs()
	for pi, p := range e.protocols {
		e.runPhase(pi, phaseRefresh, alive)
		if codec, ok := p.(PlanCodec); ok && exch != nil {
			shard := sliceSlots(alive, lo, hi)
			e.runPhase(pi, phasePlan, shard)
			if err := exch(pi, codec, shard); err != nil {
				return false, err
			}
		} else {
			e.runPhase(pi, phasePlan, alive)
		}
		e.deliver(pi, alive)
		e.runPhase(pi, phaseAbsorb, alive)
	}
	e.foldMeters()
	e.meter.EndRound()
	e.round++
	if e.roundEnd != nil {
		stop = e.roundEnd(e)
	}
	return stop, nil
}

// sliceSlots returns the subslice of the ascending slot list whose slots
// fall in [lo, hi). It is a window into the caller's slice, not a copy.
func sliceSlots(slots []int, lo, hi int) []int {
	i := sort.SearchInts(slots, lo)
	j := i + sort.SearchInts(slots[i:], hi)
	return slots[i:j]
}

// PlanBytes returns the bytes protocol pi metered into the per-worker
// shards since the last round barrier — during a distributed round, the
// local shard's Plan-phase count for pi, because Plan is the only metered
// phase and Ctx.Count meters the running protocol. Called by the shard
// exchange to export the local meter delta.
func (e *Engine) PlanBytes(pi int) int64 {
	var sum int64
	for i := range e.ctxs {
		if pi < len(e.ctxs[i].counts) {
			sum += e.ctxs[i].counts[pi]
		}
	}
	return sum
}

// AddPlanBytes credits bytes metered by a remote shard's Plan phase to
// protocol pi. The credit lands directly in the shared meter's current
// round, joining the local per-worker shards when foldMeters runs at the
// round barrier.
func (e *Engine) AddPlanBytes(pi int, v int64) {
	if pi >= 0 && pi < len(e.meter.current) {
		e.meter.current[pi] += v
	}
}
