// Package peersampling implements a gossip-based peer-sampling service in
// the style of Cyclon / the Jelasity et al. framework — the "global peer
// sampling" layer at the bottom of the paper's runtime (Figure 1).
//
// Every node maintains a small partial view of random other nodes. Each
// round a node swaps a few entries (including a fresh descriptor of itself)
// with the oldest peer in its view. The resulting overlay is a continuously
// reshuffled random graph: connected with overwhelming probability, with
// in-degrees concentrated around the view size, and self-healing under
// churn because descriptors of dead nodes age out through the swaps.
//
// Upper layers (UO1, UO2, the shape overlays) use the service both as a
// stream of uniform random candidates and as the source of the "pinch of
// randomness" Vicinity needs to escape local minima.
package peersampling

import (
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// Protocol constants. No caller tunes the sampling layer: the upper layers
// only need it to be a connected, continuously reshuffled random graph.
const (
	// viewSize is the partial-view capacity.
	viewSize = 16
	// gossip is the shuffle length: how many descriptors each side sends.
	// It may not exceed viewSize.
	gossip = 8
	// bootstrap is how many random existing nodes a joining node learns
	// from the (simulated) bootstrap service.
	bootstrap = 5
)

// plan kinds: what the node's planned turn amounts to.
const (
	planNone      = iota // nothing to do (no exchange possible)
	planBoot             // isolated node re-bootstraps with one contact
	planTimeout          // exchange attempted, request lost in transit
	planDelivered        // full request/response exchange
)

// cyclonPlan is one node's planned shuffle for the current round, computed
// in the parallel plan phase and consumed by Deliver/Absorb. Its two
// payloads live in the slot's plan region (sim.Ctx.PlanRegion): what this
// node sends (self first) in the first gossip descriptors, what the
// partner answers with in the next gossip; the record keeps their lengths.
type cyclonPlan struct {
	boot          view.Descriptor
	partner       view.NodeID
	nsend, nreply uint8
	kind          uint8
}

// Protocol is the peer-sampling service. Create it with New, register it
// with the engine before any other layer, then treat it as the candidate
// source for the upper layers.
type Protocol struct {
	// states holds the per-slot partial views as dense struct-of-arrays
	// state (headers and entries in contiguous arena-backed arrays).
	states view.Table
	plans  []cyclonPlan // per engine slot
}

var _ sim.Protocol = (*Protocol)(nil)

// New creates a peer-sampling protocol.
func New() *Protocol { return &Protocol{} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "rps" }

// View returns the partial view of the node at slot. The returned view is
// live protocol state: callers must treat it as read-only.
func (p *Protocol) View(slot int) *view.View { return p.states.At(slot) }

// Resize implements sim.Protocol: it sizes the per-slot storage (plan
// records, state table) to n slots.
func (p *Protocol) Resize(n int) {
	for len(p.plans) < n {
		p.plans = append(p.plans, cyclonPlan{})
	}
	p.plans = p.plans[:n]
	p.states.Resize(n)
}

// PlanWidth implements sim.PlanCodec: both payloads of a shuffle, each
// bounded by the shuffle length.
func (p *Protocol) PlanWidth() int { return 2 * gossip }

// payloads returns the two payload windows of a slot's plan region: what
// the slot sends (self first) and what its partner answers with.
func payloads(region []view.Descriptor) (send, reply []view.Descriptor) {
	return region[:gossip:gossip], region[gossip : 2*gossip : 2*gossip]
}

// InitNode implements sim.Protocol: it allocates the node's view and seeds
// it from the simulated bootstrap service (a few uniformly random alive
// nodes), which is how a fresh node would join a deployed system.
func (p *Protocol) InitNode(e *sim.Engine, slot int) {
	v := p.states.Init(slot, viewSize)
	for i := 0; i < bootstrap; i++ {
		n := e.RandomAlive(slot)
		if n == nil {
			break
		}
		v.Add(n.Descriptor())
	}
}

// SnapshotSlot implements sim.Protocol: the only inter-round state is
// the slot's partial view (plans and routing live inside one round).
func (p *Protocol) SnapshotSlot(w *snap.Writer, slot int) {
	snap.WriteView(w, p.states.At(slot))
}

// RestoreSlot implements sim.Protocol.
func (p *Protocol) RestoreSlot(r *snap.Reader, slot int) error {
	snap.ReadViewInto(r, &p.states, slot)
	return nil
}

// Refresh implements sim.Protocol: age the view.
func (p *Protocol) Refresh(ctx *sim.Ctx) {
	p.states.At(ctx.Slot()).AgeAll()
}

// Plan implements sim.Protocol: compute one active Cyclon shuffle against a
// read-only snapshot of the overlay. Payloads land in the slot's plan
// region, their lengths in its plan record; intermediates live on the
// worker pad — a steady-state plan performs zero heap allocations.
func (p *Protocol) Plan(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	e := ctx.Engine()
	v := p.states.At(slot)
	pl := &p.plans[slot]
	pl.kind = planNone

	partner, _, ok := v.Oldest()
	if !ok {
		// Isolated (e.g. mass failure took every contact): re-bootstrap.
		if n := ctx.RandomAlive(slot); n != nil {
			pl.kind = planBoot
			pl.boot = n.Descriptor()
		}
		return
	}
	pl.partner = partner.ID

	// The pointer to the partner is consumed by the swap (Cyclon): its
	// slot will be refilled by the partner's fresh self-descriptor. The
	// view itself stays untouched until Absorb; the sample pool is the
	// view minus the partner, built on the pad.
	pad := ctx.Pad()
	pool := v.AppendEntries(pad.Same[:0])
	for i := range pool {
		if pool[i].ID == partner.ID {
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			break
		}
	}
	pad.Same = pool

	sample := view.SampleInto(ctx.Rand(), pool, gossip-1, pad.Sample[:0], &pad.Sampler)
	pad.Sample = sample
	sendBuf, replyBuf := payloads(ctx.PlanRegion(slot))
	send := append(sendBuf[:0], self.Descriptor())
	send = append(send, sample...)
	pl.nsend = uint8(len(send))

	target := e.Lookup(partner.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		// Timeout: the request bytes are spent, the entry stays purged.
		pl.kind = planTimeout
		ctx.Count(sim.DescriptorPayload(len(send)))
		return
	}

	// Passive side: the partner answers with a random sample of its own
	// (still frozen) view. All draws come from the active node's stream.
	pl.kind = planDelivered
	reply := p.states.At(target.Slot).RandomSampleInto(ctx.Rand(), gossip, replyBuf[:0], &pad.Sampler)
	pl.nreply = uint8(len(reply))

	// Route and meter here at the end of Plan: bytes land in the worker's
	// meter shard, the routing in the sender's lane, and the engine merges
	// lanes per destination shard in the Deliver phase.
	ctx.Count(sim.DescriptorPayload(len(send)))
	ctx.Count(sim.DescriptorPayload(len(reply)))
	ctx.Route(target.Slot)
}

// Absorb implements sim.Protocol: fold the round's traffic into the slot's
// view — first the node's own exchange (partner purged, reply merged), then
// every shuffle that reached it as the passive side, in sender order.
func (p *Protocol) Absorb(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	v := p.states.At(slot)
	pad := ctx.Pad()
	pl := &p.plans[slot]
	switch pl.kind {
	case planBoot:
		v.Add(pl.boot)
	case planTimeout:
		v.Remove(pl.partner)
	case planDelivered:
		send, reply := payloads(ctx.PlanRegion(slot))
		v.Remove(pl.partner)
		mergeCyclon(v, self.ID, reply[:pl.nreply], send[:pl.nsend], &pad.IDs)
	}
	for sender := ctx.FirstSender(); sender >= 0; sender = ctx.NextSender(sender) {
		spl := &p.plans[sender]
		send, reply := payloads(ctx.PlanRegion(sender))
		mergeCyclon(v, self.ID, send[:spl.nsend], reply[:spl.nreply], &pad.IDs)
	}
}

// mergeCyclon folds received descriptors into v following Cyclon's rules:
// duplicates keep the freshest copy, empty slots are filled first, and when
// the view is full, entries that were sent to the peer are overwritten.
// Remaining received descriptors are discarded. scratch backs the
// replaceable set and is grown in place.
func mergeCyclon(v *view.View, self view.NodeID, received, sent []view.Descriptor, scratch *[]view.NodeID) {
	replaceable := (*scratch)[:0]
	for _, d := range sent {
		if d.ID != self {
			replaceable = append(replaceable, d.ID)
		}
	}
	*scratch = replaceable
	for _, d := range received {
		if d.ID == self {
			continue
		}
		if _, held := v.Upsert(d); held {
			continue
		}
		// View full: overwrite one of the entries sent away.
		replaced := false
		for len(replaceable) > 0 && !replaced {
			id := replaceable[len(replaceable)-1]
			replaceable = replaceable[:len(replaceable)-1]
			if i := v.IndexOf(id); i >= 0 {
				v.RemoveAt(i)
				v.Add(d)
				replaced = true
			}
		}
	}
}
