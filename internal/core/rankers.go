package core

import (
	"sosf/internal/vicinity"
	"sosf/internal/view"
)

// foreignPenalty is the rank offset applied to other-component candidates
// in UO1: foreign entries are kept while nothing better is known (so views
// fill and gossip keeps flowing during bootstrap) but any same-component
// candidate immediately outranks them.
const foreignPenalty = 1 << 20

// uo1Ranker drives the same-component overlay: same-component candidates
// rank in a deterministic pseudo-random order (pairwise key mixing keeps
// the overlay diverse instead of everyone converging on the same k peers);
// foreign candidates are strictly worse; stale epochs are rejected.
type uo1Ranker struct {
	alloc    *Allocator
	capacity int
}

var _ vicinity.Ranker = uo1Ranker{}

// Rank implements vicinity.Ranker.
func (r uo1Ranker) Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey {
	epoch := r.alloc.Epoch()
	if owner.Epoch != epoch {
		return keys
	}
	for i := range pool {
		d := &pool[i]
		if int(d.Age) > maxAge || d.Profile.Epoch != epoch {
			continue
		}
		rank := mix01(owner.Key, d.Profile.Key)
		if d.Profile.Comp != owner.Comp {
			rank += foreignPenalty
		}
		keys = append(keys, view.RankKey{Rank: rank, ID: d.ID, Age: d.Age, Idx: int32(i)})
	}
	return keys
}

// Capacity implements vicinity.Ranker.
func (r uo1Ranker) Capacity(view.Profile) int { return r.capacity }

// coreRanker drives every component's core protocol with a single Vicinity
// instance: it dispatches ranking and capacity to the owner's component
// shape. Cross-component and stale-epoch candidates are rejected outright,
// so a component's core view only ever contains current members of the
// same component.
//
// Alive-rank protocol: both profiles are translated through
// Allocator.Dense before the shape sees them, so gradients compare dense
// alive-ranks (the oracle's ordering of survivors) rather than the sparse
// Profile.Index. After an unreplaced death this closes the gradient-vs-
// oracle mismatch immediately: the shape steers toward the structure the
// oracle actually measures, and the timeline reconverges without a
// Reconfigure. With healing disabled Dense is the identity and the legacy
// sparse-index behavior is preserved.
type coreRanker struct {
	alloc *Allocator
}

var _ vicinity.Ranker = coreRanker{}

// Rank implements vicinity.Ranker. The owner's shape, dense profile and
// component's Dense table are resolved once per pool; each candidate of
// the owner's component and epoch is translated through that table and
// ranked by the shape.
func (r coreRanker) Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey {
	epoch := r.alloc.Epoch()
	if owner.Comp < 0 || owner.Epoch != epoch {
		return keys
	}
	shape := r.alloc.Shape(owner.Comp)
	dense := r.alloc.denseOf(owner.Comp)
	o := dense.apply(owner)
	for i := range pool {
		d := &pool[i]
		if int(d.Age) > maxAge || d.Profile.Comp != owner.Comp || d.Profile.Epoch != epoch {
			continue
		}
		if rank := shape.Rank(o, dense.apply(d.Profile)); rank < view.RankInf {
			keys = append(keys, view.RankKey{Rank: rank, ID: d.ID, Age: d.Age, Idx: int32(i)})
		}
	}
	return keys
}

// Capacity implements vicinity.Ranker.
func (r coreRanker) Capacity(p view.Profile) int {
	if p.Comp < 0 || int(p.Comp) >= r.alloc.Components() {
		return 1
	}
	return r.alloc.Shape(p.Comp).Capacity(r.alloc.Dense(p))
}
