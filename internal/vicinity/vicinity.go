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
	"math"
	"slices"

	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// Ranker ranks candidate peers for their owner. Lower ranks are better;
// view.RankInf rejects the candidate outright (it will never be kept nor
// forwarded to the owner).
//
// Rank ranks a whole candidate pool for one owner in one call, so a ranker
// resolves what depends on the owner alone (its epoch check, its shape, its
// dense profile) once per pool rather than once per candidate. It appends to
// keys, in pool order, one key for each candidate that is no older than
// maxAge and that the owner ranks below view.RankInf: the rank, the
// candidate's ID and age, and its index in pool. It returns the extended
// slice and must not retain pool or keys.
//
// Capacity returns the owner's view capacity, enabling per-role
// differentiation (a star hub keeps many more neighbors than a leaf).
type Ranker interface {
	Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey
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
// plan phase against frozen views and consumed by Deliver/Absorb. Its two
// payloads live in the slot's plan region (sim.Ctx.PlanRegion): the payload
// for the partner (self first) in the first Gossip descriptors, the
// partner's payload for this node in the next Gossip; the record keeps
// their lengths.
type vicinityPlan struct {
	partner       view.NodeID
	nsend, nreply int32
	kind          uint8
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
}

var _ sim.Protocol = (*Protocol)(nil)

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
		p.plans = append(p.plans, vicinityPlan{})
	}
	p.plans = p.plans[:n]
	p.states.Resize(n)
}

// PlanWidth implements sim.PlanCodec: both payloads of an exchange, each
// bounded by the gossip budget.
func (p *Protocol) PlanWidth() int { return 2 * p.opts.Gossip }

// payloads returns the two payload windows of a slot's plan region: the
// sender's (self first) and the reply's, each Gossip descriptors.
func (p *Protocol) payloads(region []view.Descriptor) (send, reply []view.Descriptor) {
	g := p.opts.Gossip
	return region[:g:g], region[g : 2*g : 2*g]
}

// InitNode implements sim.Protocol.
func (p *Protocol) InitNode(e *sim.Engine, slot int) {
	p.states.Init(slot, p.ranker.Capacity(e.Node(slot).Profile))
}

// SnapshotSlot implements sim.Protocol: the inter-round state is the
// slot's overlay view (capacity included — it is re-derived from the
// ranker on the next Refresh anyway, but the view's entry order is state).
func (p *Protocol) SnapshotSlot(w *snap.Writer, slot int) {
	snap.WriteView(w, p.states.At(slot))
}

// RestoreSlot implements sim.Protocol.
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
		p.purge(ctx.Pad(), self, v)
	}
	for _, f := range p.feeds {
		p.applyView(ctx.Pad(), self, v, f.View(slot))
	}
}

// Plan implements sim.Protocol: choose a partner and compute both payloads
// of the exchange against the frozen post-refresh views. Payload selection
// and ranking run on the worker pad; the payloads land in the slot's plan
// region, their lengths in its plan record.
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
	sendBuf, replyBuf := p.payloads(ctx.PlanRegion(slot))
	pl.partner = partner.ID
	send := p.selectFor(ctx, slot, partner.Profile, partner.ID, sendBuf[:0])
	pl.nsend = int32(len(send))

	target := e.Lookup(partner.ID)
	if target == nil || !target.Alive || !ctx.Deliver(target.Slot) {
		// Timeout: suspect the contact rather than evicting it — message
		// loss must not empty views, but dead peers accumulate penalties
		// (they keep being selected as the oldest entry) and age out.
		pl.kind = planTimeout
		ctx.Count(sim.DescriptorPayload(len(send)))
		return
	}

	// Passive side replies with its best candidates for us, drawn from its
	// frozen views with the active node's stream.
	pl.kind = planDelivered
	reply := p.selectFor(ctx, target.Slot, self.Profile, self.ID, replyBuf[:0])
	pl.nreply = int32(len(reply))

	// Meter into the worker's shard and route via the sender's lane; the
	// engine's Deliver phase merges lanes per destination shard.
	ctx.Count(sim.DescriptorPayload(len(send)))
	ctx.Count(sim.DescriptorPayload(len(reply)))
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
		_, reply := p.payloads(ctx.PlanRegion(slot))
		p.apply(pad, self, v, reply[:pl.nreply])
	}
	for sender := ctx.FirstSender(); sender >= 0; sender = ctx.NextSender(sender) {
		send, _ := p.payloads(ctx.PlanRegion(sender))
		p.apply(pad, self, v, send[:p.plans[sender].nsend])
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
	return p.payload(append(dst, self.Descriptor()), pool, keys, ctx.Rand())
}

// payload appends to out, which holds the sender's own descriptor, the
// pool entries of the best Gossip-1 keys, best first; keys is reordered.
//
// Payload diversity: once views saturate, every peer would keep sending
// the owner the same top-ranked candidates, and pairs outside that set
// could only meet through the sampling service — a long geometric tail for
// dense shapes like cliques. So when keys are left past the top, the last
// slot goes to a uniformly random one of them: the j-th best of the rest,
// for a j drawn from the rest's length alone.
func (p *Protocol) payload(out, pool []view.Descriptor, keys []view.RankKey, rng view.Rand) []view.Descriptor {
	top := p.opts.Gossip - 1
	selectTop(keys, top)
	for _, k := range keys[:min(top, len(keys))] {
		out = append(out, pool[k.Idx])
	}
	if !p.opts.NoRandomFeed && len(keys) > top {
		rest := keys[top:]
		out[len(out)-1] = pool[nth(rest, rng.Intn(len(rest))).Idx]
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
	keys := p.rankPool(pad, n.Profile, pool, p.opts.MaxAge)
	selectTop(keys, v.Cap())
	v.ReplaceRanked(pool, keys)
}

// purge drops entries that aged out or became unrankable (stale epoch,
// foreign component after a reconfiguration), keeping the rest in view
// order: the keys come back in pool order and are gathered unselected.
func (p *Protocol) purge(pad *sim.Pad, n *sim.Node, v *view.View) {
	m := &pad.Merger
	m.Begin(n.ID)
	m.AddView(v)
	pool := m.Result()
	v.ReplaceRanked(pool, p.rankPool(pad, n.Profile, pool, p.opts.MaxAge))
}

// rankPool ranks pool for owner with one ranker call and returns the keys
// of the candidates the owner can rank and that are no older than maxAge,
// in pool order. The keys live on the worker pad and index into pool, so
// the caller selects among them and gathers only the descriptors it keeps.
func (p *Protocol) rankPool(pad *sim.Pad, owner view.Profile, pool []view.Descriptor, maxAge int) []view.RankKey {
	pad.Keys = p.ranker.Rank(owner, pool, maxAge, pad.Keys[:0])
	return pad.Keys
}

// sortAbove is the prefix length above which selectTop falls back to the
// generic sort: insertion costs O(len(keys)·k), which would go quadratic
// for a clique or star hub whose capacity is its whole component.
const sortAbove = 32

// selectTop reorders keys so that keys[:k] hold the k best keys in
// view.RankKey order and keys[k:] the rest, in no particular order. Callers
// read only a prefix — capacity entries, or the gossip budget — so the rest
// is never sorted.
func selectTop(keys []view.RankKey, k int) {
	k = min(k, len(keys))
	if k <= 0 {
		return
	}
	if k > sortAbove {
		slices.SortFunc(keys, view.RankKey.Compare)
		return
	}
	for i := 1; i < len(keys); i++ {
		x := keys[i]
		j := min(i, k)
		if j == k {
			// The prefix is full: x enters only by displacing its worst
			// key, which moves to x's old place in the rest.
			if x.Compare(keys[k-1]) >= 0 {
				continue
			}
			keys[i] = keys[k-1]
			j = k - 1
		}
		for ; j > 0 && x.Compare(keys[j-1]) < 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = x
	}
}

// nth returns the key at position j of keys sorted in view.RankKey order
// (nth-element), reordering keys.
func nth(keys []view.RankKey, j int) view.RankKey {
	selectTop(keys, j+1)
	return keys[j]
}
