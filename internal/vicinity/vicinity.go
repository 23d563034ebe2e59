// Package vicinity implements a generic self-organizing overlay protocol in
// the style of Vicinity and T-Man: each node greedily keeps the best-ranked
// peers it has ever heard of, and gossip exchanges spread good candidates
// along the gradient of the ranking function, so the overlay converges to
// the target structure in a logarithmic number of rounds.
//
// The protocol is deliberately *not* monolithic: the ranking function, the
// per-node view capacity and the candidate feed are all injected. The
// paper's runtime instantiates it several times with different rankers —
// one per component shape (the "core protocol"), once for the
// same-component overlay (UO1) — while reusing a single peer-sampling layer
// as the shared source of random candidates ("a pinch of randomness brings
// out the structure").
package vicinity

import (
	"cmp"
	"math"
	"slices"

	"sosf/internal/arena"
	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// Ranker orders candidate peers for a given owner. Lower ranks are better;
// view.RankInf rejects the candidate outright (it will never be kept nor
// forwarded to the owner).
//
// Capacity returns the owner's view capacity, enabling per-role
// differentiation (a star hub keeps many more neighbors than a leaf).
type Ranker interface {
	Rank(owner, candidate view.Profile) float64
	Capacity(owner view.Profile) int
}

// DefaultGossip is how many descriptors each side contributes to an
// exchange unless configured otherwise; the runtime's OverlayGossip and the
// monolithic baseline both default to it.
const DefaultGossip = 5

// Options configure a vicinity instance. Zero fields take defaults.
type Options struct {
	// Gossip is how many descriptors each side contributes to an exchange
	// (default DefaultGossip).
	Gossip int
	// MaxAge evicts descriptors not refreshed for this many rounds,
	// bounding how long dead nodes linger (default 20).
	MaxAge int
	// NoRandomFeed disables candidate injection from the peer-sampling
	// layer (pure greedy T-Man). Exists for the ablation experiment; the
	// overlay can then get stuck in local minima.
	NoRandomFeed bool
}

func (o Options) withDefaults() Options {
	if o.Gossip <= 0 {
		o.Gossip = DefaultGossip
	}
	if o.MaxAge <= 0 {
		o.MaxAge = 20
	}
	return o
}

// randomContact is the probability of gossiping with a uniformly random
// peer (from the sampling service) instead of the oldest view entry —
// Vicinity's ingredient for escaping local minima and discovering far-away
// regions of the gradient.
const randomContact = 0.2

// plan kinds.
const (
	planNone      = iota // no partner this round
	planTimeout          // request lost: suspect the contact
	planDelivered        // full request/response exchange
)

// vicinityPlan is one node's planned exchange, computed in the parallel
// plan phase against frozen views and consumed by Deliver/Absorb. Buffers
// are retained per slot so steady-state planning allocates nothing.
type vicinityPlan struct {
	kind    int
	partner view.NodeID
	send    []view.Descriptor // payload for the partner (self first)
	reply   []view.Descriptor // partner's payload for this node
}

// Protocol is one self-organizing overlay instance.
type Protocol struct {
	name   string
	ranker Ranker
	opts   Options
	rps    *peersampling.Protocol
	// feeds are stacked overlays whose views this overlay folds in as
	// free local candidates, read in place: the runtime's component core
	// protocol feeds off the same-component overlay (UO1) this way. A feed
	// is registered on the same engine, which sizes it before any InitNode,
	// so its view covers every slot.
	feeds []*Protocol
	// states holds the per-slot overlay views as dense struct-of-arrays
	// state (headers and entries in contiguous arena-backed arrays).
	states view.Table
	plans  []vicinityPlan
	arena  []view.Descriptor
}

var (
	_ sim.Protocol    = (*Protocol)(nil)
	_ sim.Snapshotter = (*Protocol)(nil)
)

// New creates an overlay named name, ranked by ranker, drawing random
// candidates from rps (may be nil only if opts.NoRandomFeed is set) and,
// optionally, from the views of stacked overlays (feeds).
func New(name string, ranker Ranker, rps *peersampling.Protocol, opts Options, feeds ...*Protocol) *Protocol {
	return &Protocol{
		name:   name,
		ranker: ranker,
		opts:   opts.withDefaults(),
		rps:    rps,
		feeds:  feeds,
	}
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return p.name }

// View returns the overlay view of the node at slot (treat as read-only).
func (p *Protocol) View(slot int) *view.View { return p.states.At(slot) }

// Resize implements sim.Protocol: it sizes the per-slot storage (plan
// records, state table) to n slots, without touching any view.
func (p *Protocol) Resize(n int) {
	for len(p.plans) < n {
		// Both payloads are bounded by the gossip budget; carving them
		// from a chunked arena makes population setup two allocations
		// per few hundred slots instead of two per slot.
		p.plans = append(p.plans, vicinityPlan{
			send:  arena.Carve(&p.arena, p.opts.Gossip),
			reply: arena.Carve(&p.arena, p.opts.Gossip),
		})
	}
	p.plans = p.plans[:n]
	p.states.Resize(n)
}

// InitNode implements sim.Protocol.
func (p *Protocol) InitNode(e *sim.Engine, slot int) {
	p.states.Init(slot, p.ranker.Capacity(e.Node(slot).Profile))
}

// SnapshotSlot implements sim.Snapshotter: the inter-round state is the
// slot's overlay view (capacity included — it is re-derived from the
// ranker on the next Refresh anyway, but the view's entry order is state).
func (p *Protocol) SnapshotSlot(w *snap.Writer, slot int) {
	snap.WriteView(w, p.states.At(slot))
}

// RestoreSlot implements sim.Snapshotter.
func (p *Protocol) RestoreSlot(r *snap.Reader, slot int) error {
	snap.ReadViewInto(r, &p.states, slot)
	return nil
}

// Refresh implements sim.Protocol: per-slot view maintenance plus the free
// local candidate injection from the sampling service and any stacked
// feeds. Mutations touch only this slot's view; feeds are read at this slot
// only, so refreshes shard across workers safely.
func (p *Protocol) Refresh(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	v := p.states.At(slot)
	// Capacity can change across reconfigurations (role differentiation).
	v.SetCap(p.ranker.Capacity(self.Profile))
	v.AgeAll()

	// Free local injection: fold the sampling service's view and any
	// stacked feeds into ours. No bandwidth — the candidates are already
	// on this node. The sampling-view fold applies purge's age/rank
	// predicate to the merged pool, so the separate purge pass only runs
	// when that fold does not.
	if !p.opts.NoRandomFeed && p.rps != nil {
		p.applyView(ctx.Pad(), self, v, p.rps.View(slot))
	} else {
		p.purge(self.Profile, v)
	}
	for _, f := range p.feeds {
		p.applyView(ctx.Pad(), self, v, f.View(slot))
	}
}

// Plan implements sim.Protocol: choose a partner and compute both payloads
// of the exchange against the frozen post-refresh views. Payload selection
// and ranking run on the worker pad; the results land in the slot's
// retained plan record.
func (p *Protocol) Plan(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	e := ctx.Engine()
	v := p.states.At(slot)
	pl := &p.plans[slot]
	pl.kind = planNone

	partner, ok := p.pickPartner(ctx, slot, v)
	if !ok {
		return
	}
	pl.partner = partner.ID
	pl.send = p.selectFor(ctx, slot, partner.Profile, partner.ID, pl.send[:0])

	target := e.Lookup(partner.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		// Timeout: suspect the contact rather than evicting it — message
		// loss must not empty views, but dead peers accumulate penalties
		// (they keep being selected as the oldest entry) and age out.
		pl.kind = planTimeout
		ctx.Count(sim.DescriptorPayload(len(pl.send)))
		return
	}

	// Passive side replies with its best candidates for us, drawn from its
	// frozen views with the active node's stream.
	pl.kind = planDelivered
	pl.reply = p.selectFor(ctx, target.Slot, self.Profile, self.ID, pl.reply[:0])

	// Meter into the worker's shard and route via the sender's lane; the
	// engine's Deliver phase merges lanes per destination shard.
	ctx.Count(sim.DescriptorPayload(len(pl.send)))
	ctx.Count(sim.DescriptorPayload(len(pl.reply)))
	ctx.Route(target.Slot)
}

// Absorb implements sim.Protocol: fold the round's incoming payloads into
// the slot's view — the reply to its own exchange (or the timeout penalty),
// then every payload that reached it as the passive side, in sender order.
func (p *Protocol) Absorb(ctx *sim.Ctx) {
	slot := ctx.Slot()
	self := ctx.Node()
	v := p.states.At(slot)
	pad := ctx.Pad()
	pl := &p.plans[slot]
	switch pl.kind {
	case planTimeout:
		v.Penalize(pl.partner, uint16(p.opts.MaxAge/4+1))
	case planDelivered:
		p.apply(pad, self, v, pl.reply)
	}
	for sender := ctx.FirstSender(); sender >= 0; sender = ctx.NextSender(sender) {
		p.apply(pad, self, v, p.plans[sender].send)
	}
}

// pickPartner chooses the exchange partner: usually the oldest view entry
// (so every link is refreshed round-robin), sometimes a random peer.
func (p *Protocol) pickPartner(ctx *sim.Ctx, slot int, v *view.View) (view.Descriptor, bool) {
	rng := ctx.Rand()
	useRandom := false
	if !p.opts.NoRandomFeed && p.rps != nil {
		if v.Len() == 0 || rng.Float64() < randomContact {
			useRandom = true
		}
	}
	if useRandom {
		if d, ok := p.rps.View(slot).Random(rng); ok {
			return d, true
		}
	}
	// An empty overlay view already tried the sampling view above (when it
	// has one), so a failed Oldest means there is no partner to pick.
	d, _, ok := v.Oldest()
	return d, ok
}

// selectFor builds, in dst, the gossip payload a node sends to a peer: its
// own fresh descriptor plus the best candidates *from the peer's point of
// view* drawn from the node's overlay view and sampling-service view. The
// candidate pool and ranked list live on the worker pad; every view is read
// in place, never written.
func (p *Protocol) selectFor(ctx *sim.Ctx, slot int, owner view.Profile, ownerID view.NodeID, dst []view.Descriptor) []view.Descriptor {
	self := ctx.Engine().Node(slot)
	pad := ctx.Pad()
	m := &pad.Merger
	m.Begin(ownerID)
	m.AddView(p.states.At(slot))
	if !p.opts.NoRandomFeed && p.rps != nil {
		m.AddView(p.rps.View(slot))
	}
	for _, f := range p.feeds {
		m.AddView(f.View(slot))
	}
	pool := m.Result()
	keys := p.rankPool(pad, owner, pool, math.MaxUint16)
	out := append(dst, self.Descriptor())
	for _, k := range keys {
		if len(out) >= p.opts.Gossip {
			break
		}
		out = append(out, pool[k.Idx])
	}
	// Payload diversity: once views saturate, every peer would keep
	// sending the owner the same top-ranked candidates, and pairs outside
	// that set could only meet through the sampling service — a long
	// geometric tail for dense shapes like cliques. Reserving one slot
	// for a uniformly random rankable candidate closes that tail.
	if !p.opts.NoRandomFeed && len(keys) >= len(out) {
		spare := keys[len(out)-1:]
		out[len(out)-1] = pool[spare[ctx.Rand().Intn(len(spare))].Idx]
	}
	return out
}

// apply folds incoming descriptors into the node's view, keeping the
// best-ranked `capacity` entries.
func (p *Protocol) apply(pad *sim.Pad, n *sim.Node, v *view.View, incoming []view.Descriptor) {
	m := &pad.Merger
	m.Begin(n.ID)
	m.AddView(v)
	m.AddSlice(incoming)
	p.applyMerged(pad, n, v)
}

// applyView is apply for candidates that live in another layer's view, read
// in place.
func (p *Protocol) applyView(pad *sim.Pad, n *sim.Node, v *view.View, inView *view.View) {
	m := &pad.Merger
	m.Begin(n.ID)
	m.AddView(v)
	m.AddView(inView)
	p.applyMerged(pad, n, v)
}

// applyMerged finishes an apply: rank the merged pool, and replace the
// view's contents with the best `capacity` entries that neither aged out
// nor are unrankable.
func (p *Protocol) applyMerged(pad *sim.Pad, n *sim.Node, v *view.View) {
	pool := pad.Merger.Result()
	v.ReplaceRanked(pool, p.rankPool(pad, n.Profile, pool, p.opts.MaxAge))
}

// purge drops entries that aged out or became unrankable (stale epoch,
// foreign component after a reconfiguration).
func (p *Protocol) purge(owner view.Profile, v *view.View) {
	v.Filter(func(d view.Descriptor) bool {
		return int(d.Age) <= p.opts.MaxAge && p.ranker.Rank(owner, d.Profile) < view.RankInf
	})
}

// rankPool ranks every candidate of pool for owner exactly once and returns
// the keys of those the owner can rank and that are no older than maxAge,
// best first. The keys live on the worker pad and index into pool, so the
// caller gathers only the descriptors it keeps.
func (p *Protocol) rankPool(pad *sim.Pad, owner view.Profile, pool []view.Descriptor, maxAge int) []view.RankKey {
	keys := pad.Keys[:0]
	for i, d := range pool {
		if int(d.Age) > maxAge {
			continue
		}
		if r := p.ranker.Rank(owner, d.Profile); r < view.RankInf {
			keys = append(keys, view.RankKey{Rank: r, ID: d.ID, Age: d.Age, Idx: int32(i)})
		}
	}
	pad.Keys = keys
	slices.SortFunc(keys, byRank)
	return keys
}

// byRank orders keys by (rank, age, id). IDs are unique within a pool, so
// this is a total order and the sorted result does not depend on the
// sorting algorithm.
func byRank(a, b view.RankKey) int {
	if a.Rank != b.Rank {
		if a.Rank < b.Rank {
			return -1
		}
		return 1
	}
	if a.Age != b.Age {
		return int(a.Age) - int(b.Age)
	}
	return cmp.Compare(a.ID, b.ID)
}
