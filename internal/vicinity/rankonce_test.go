package vicinity

// Tests pinning the rank-once path (rankPool: one Rank call per candidate,
// compact keys, slices.SortFunc, gather) to the semantics of the code it
// replaced: filter by age and rankability, then order the descriptors
// themselves by (Rank, Age, ID) with the ranker consulted per comparison.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sosf/internal/sim"
	"sosf/internal/view"
)

// referenceRanked is the replaced behavior, kept as the test oracle: the
// pool's entries no older than maxAge that owner can rank, stably sorted by
// the old (Rank, Age, ID) comparator.
func referenceRanked(r Ranker, owner view.Profile, pool []view.Descriptor, maxAge int) []view.Descriptor {
	var kept []view.Descriptor
	for _, d := range pool {
		if int(d.Age) <= maxAge && r.Rank(owner, d.Profile) < view.RankInf {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		ri, rj := r.Rank(owner, kept[i].Profile), r.Rank(owner, kept[j].Profile)
		if ri != rj {
			return ri < rj
		}
		if kept[i].Age != kept[j].Age {
			return kept[i].Age < kept[j].Age
		}
		return kept[i].ID < kept[j].ID
	})
	return kept
}

// randomPool builds a pool of unique IDs in random order over a small ring
// (so cyclic distances tie constantly, two candidates per distance and many
// sharing an index), with stale-epoch entries the ringRanker rejects and
// ages straddling maxAge.
func randomPool(rng *rand.Rand, owner view.Profile, n, maxAge int) []view.Descriptor {
	pool := make([]view.Descriptor, 0, n)
	for _, id := range rng.Perm(4 * n)[:n] {
		d := view.Descriptor{
			ID:  view.NodeID(id),
			Age: uint16(rng.Intn(maxAge + 4)),
			Profile: view.Profile{
				Index: int32(rng.Intn(int(owner.Size))),
				Size:  owner.Size,
				Epoch: owner.Epoch,
			},
		}
		if rng.Intn(6) == 0 {
			d.Profile.Epoch = owner.Epoch - 1 // ranks RankInf
		}
		if rng.Intn(10) == 0 {
			d.Age = math.MaxUint16
		}
		pool = append(pool, d)
	}
	return pool
}

func TestRankPoolMatchesReferenceSort(t *testing.T) {
	const maxAge = 20
	rng := rand.New(rand.NewSource(17))
	p := New("ring", ringRanker{capacity: 6}, nil, Options{MaxAge: maxAge, NoRandomFeed: true})
	var pad sim.Pad // deliberately reused across every trial
	for trial := 0; trial < 2000; trial++ {
		owner := view.Profile{Index: int32(rng.Intn(16)), Size: 16, Epoch: 3}
		pool := randomPool(rng, owner, rng.Intn(70), maxAge)
		// selectFor ranks without an age bound, applyMerged with MaxAge.
		for _, bound := range []int{math.MaxUint16, maxAge} {
			want := referenceRanked(p.ranker, owner, pool, bound)
			keys := p.rankPool(&pad, owner, pool, bound)
			if len(keys) != len(want) {
				t.Fatalf("trial %d bound %d: %d keys, reference keeps %d", trial, bound, len(keys), len(want))
			}
			for i, k := range keys {
				if got := pool[k.Idx]; got != want[i] {
					t.Fatalf("trial %d bound %d: position %d is %+v, reference has %+v", trial, bound, i, got, want[i])
				}
				if k.ID != want[i].ID || k.Age != want[i].Age || k.Rank != p.ranker.Rank(owner, want[i].Profile) {
					t.Fatalf("trial %d bound %d: key %+v does not describe %+v", trial, bound, k, want[i])
				}
			}
		}
	}
}

// TestApplyMatchesReference runs the whole apply path — merge, rank once,
// keep the best `capacity` — against merge + reference sort + truncate.
func TestApplyMatchesReference(t *testing.T) {
	const maxAge, capacity = 20, 6
	rng := rand.New(rand.NewSource(29))
	p := New("ring", ringRanker{capacity: capacity}, nil, Options{MaxAge: maxAge, NoRandomFeed: true})
	var pad sim.Pad
	var table view.Table
	table.Resize(1)
	for trial := 0; trial < 1000; trial++ {
		n := &sim.Node{ID: view.NodeID(rng.Intn(40)), Profile: view.Profile{Index: int32(rng.Intn(16)), Size: 16, Epoch: 3}}
		v := table.Init(0, capacity)
		for _, d := range randomPool(rng, n.Profile, rng.Intn(capacity+1), maxAge) {
			v.Add(d) // distinct IDs, at most capacity of them: Add keeps all
		}
		incoming := randomPool(rng, n.Profile, rng.Intn(30), maxAge)

		var m view.Merger
		want := referenceRanked(p.ranker, n.Profile, view.MergeInto(&m, n.ID, v.AppendEntries(nil), incoming), maxAge)
		if len(want) > capacity {
			want = want[:capacity]
		}
		p.apply(&pad, n, v, incoming)
		got := v.AppendEntries(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: view holds %d entries, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: view[%d] = %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRankPoolRanksEachCandidateOnce is the point of the change: the ranker
// is consulted once per candidate no matter how the sort goes.
func TestRankPoolRanksEachCandidateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counter := &countingRanker{Ranker: ringRanker{capacity: 6}}
	p := New("ring", counter, nil, Options{NoRandomFeed: true})
	owner := view.Profile{Index: 3, Size: 16, Epoch: 3}
	pool := randomPool(rng, owner, 64, 20)
	var pad sim.Pad
	p.rankPool(&pad, owner, pool, math.MaxUint16)
	if counter.calls != len(pool) {
		t.Fatalf("ranked %d candidates with %d Rank calls", len(pool), counter.calls)
	}
	if allocs := testing.AllocsPerRun(50, func() { p.rankPool(&pad, owner, pool, math.MaxUint16) }); allocs != 0 {
		t.Fatalf("warmed rankPool allocates %v objects per call", allocs)
	}
}

type countingRanker struct {
	Ranker
	calls int
}

func (c *countingRanker) Rank(owner, cand view.Profile) float64 {
	c.calls++
	return c.Ranker.Rank(owner, cand)
}
