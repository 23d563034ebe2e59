package sim

// inbox is one routing protocol's route table: it carries planned
// exchanges from active senders to their passive receivers between a
// round's Plan and Absorb phases. It is an intrusive singly-linked list
// over dense slot-indexed arrays: each sender plans at most one exchange
// per protocol per round, so one planned-target lane and one next-pointer
// per slot are enough, and a steady-state round allocates nothing — unlike
// per-slot append buffers, whose capacities keep growing as new per-round
// fan-in maxima appear.
//
// The engine owns one inbox per protocol that implements PlanCodec and
// drives it through the phases: reset in the parallel Refresh phase
// (slot-local), the sender's own lane written by Ctx.Route in the parallel
// Plan phase, merge in the parallel Deliver phase (one worker per
// destination shard, every worker scanning senders in ascending slot
// order), and read through Ctx.Target / FirstSender / NextSender in the
// parallel Absorb phase (read-only).
type inbox struct {
	head, tail, next []int32
	// planned[s] is the target slot sender s planned an exchange to this
	// round, or -1. It is the sender-owned lane that makes routing safe
	// from the parallel Plan phase; merge turns the lanes into per-target
	// lists.
	planned []int32
}

// grow extends the inbox to cover at least n slots.
func (b *inbox) grow(n int) {
	for len(b.head) < n {
		b.head = append(b.head, -1)
		b.tail = append(b.tail, -1)
		b.next = append(b.next, -1)
		b.planned = append(b.planned, -1)
	}
}

// reset empties the given slot's list and clears its planned lane.
func (b *inbox) reset(slot int) {
	b.head[slot] = -1
	b.planned[slot] = -1
}

// merge is the Deliver phase: link every planned exchange whose target
// falls in [lo, hi) into that target's intrusive list. Senders are scanned
// in ascending slot order (the alive list is slot-ordered), so each
// target's list reads in global sender-slot order no matter how the target
// space is sharded across workers — byte-identical to a serial slot-order
// delivery. Disjoint target ranges make concurrent merges race-free: a
// target's head/tail and its senders' next-pointers are written only by
// the worker owning the target's range.
func (b *inbox) merge(nodes []Node, alive []int, lo, hi int) {
	for _, s := range alive {
		t := b.planned[s]
		if int(t) < lo || int(t) >= hi || !nodes[s].Alive {
			// Unplanned lanes (-1) fall below any range; the Alive
			// re-check drops exchanges from senders killed mid-round.
			continue
		}
		sn := int32(s)
		b.next[sn] = -1
		if b.head[t] < 0 {
			b.head[t] = sn
		} else {
			b.next[b.tail[t]] = sn
		}
		b.tail[t] = sn
	}
}
