package vicinity

// Tests pinning the rank-once path — one Ranker.Rank call per pool into
// compact keys, then selection of only the prefix a caller reads (selectTop:
// insertion up to sortAbove keys, the generic sort above; nth for the
// payload's random spare) — to the semantics of the code it replaced:
// filter by age and rankability, order the descriptors themselves by
// (Rank, Age, ID) with the ranker consulted per comparison, and read a
// prefix of that order.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sosf/internal/sim"
	"sosf/internal/view"
)

// referenceRanked is the replaced behavior, kept as the test oracle: the
// pool's entries no older than maxAge that owner can rank, stably sorted by
// the old (Rank, Age, ID) comparator with ringDist consulted per
// comparison.
func referenceRanked(owner view.Profile, pool []view.Descriptor, maxAge int) []view.Descriptor {
	var kept []view.Descriptor
	for _, d := range pool {
		if int(d.Age) <= maxAge && ringDist(owner, d.Profile) < view.RankInf {
			kept = append(kept, d)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		ri, rj := ringDist(owner, kept[i].Profile), ringDist(owner, kept[j].Profile)
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

// sameEntries fails the test unless keys gather exactly want, in order.
func sameEntries(t *testing.T, what string, pool []view.Descriptor, keys []view.RankKey, want []view.Descriptor) {
	t.Helper()
	if len(keys) != len(want) {
		t.Fatalf("%s: %d keys, reference keeps %d", what, len(keys), len(want))
	}
	for i, k := range keys {
		if got := pool[k.Idx]; got != want[i] {
			t.Fatalf("%s: position %d is %+v, reference has %+v", what, i, got, want[i])
		}
	}
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
			keys := p.rankPool(&pad, owner, pool, bound)
			for i, k := range keys {
				if i > 0 && k.Idx <= keys[i-1].Idx {
					t.Fatalf("trial %d bound %d: keys leave pool order at %d", trial, bound, i)
				}
				d := pool[k.Idx]
				if k.ID != d.ID || k.Age != d.Age || k.Rank != ringDist(owner, d.Profile) {
					t.Fatalf("trial %d bound %d: key %+v does not describe %+v", trial, bound, k, d)
				}
			}
			selectTop(keys, len(keys))
			sameEntries(t, "full selection", pool, keys, referenceRanked(owner, pool, bound))
		}
	}
}

// TestSelectTopMatchesSort checks both selections against the reference
// order on pools with heavy rank and age ties: selectTop's prefix is the
// sorted prefix and its tail the rest, and nth finds every position. The
// prefix lengths straddle sortAbove and the pools reach past it, so the
// insertion path and the generic-sort fallback both run.
func TestSelectTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := ringRanker{}
	for trial := 0; trial < 600; trial++ {
		owner := view.Profile{Index: int32(rng.Intn(16)), Size: 16, Epoch: 3}
		pool := randomPool(rng, owner, rng.Intn(150), 20)
		keys := r.Rank(owner, pool, math.MaxUint16, nil)
		want := referenceRanked(owner, pool, math.MaxUint16)
		for _, k := range []int{0, 1, 2, 4, 6, sortAbove - 1, sortAbove, sortAbove + 1, 40, len(keys) - 1, len(keys), len(keys) + 3} {
			got := slices.Clone(keys)
			selectTop(got, k)
			top := min(max(k, 0), len(got))
			sameEntries(t, "prefix", pool, got[:top], want[:top])
			rest := make([]view.Descriptor, 0, len(got)-top)
			for _, key := range got[top:] {
				rest = append(rest, pool[key.Idx])
			}
			slices.SortFunc(rest, func(a, b view.Descriptor) int { return int(a.ID - b.ID) })
			wantRest := slices.Clone(want[top:])
			slices.SortFunc(wantRest, func(a, b view.Descriptor) int { return int(a.ID - b.ID) })
			if !slices.Equal(rest, wantRest) {
				t.Fatalf("trial %d k %d: the tail is not the rest of the pool", trial, k)
			}
		}
		for j := range want {
			got := slices.Clone(keys)
			if k := nth(got, j); pool[k.Idx] != want[j] {
				t.Fatalf("trial %d: nth(%d) is %+v, reference has %+v", trial, j, pool[k.Idx], want[j])
			}
		}
	}
}

// TestApplyMatchesReference runs the whole apply path — merge, rank once,
// keep the best `capacity` — against merge + reference sort + truncate,
// at a ring's capacity and at a hub's above sortAbove.
func TestApplyMatchesReference(t *testing.T) {
	const maxAge = 20
	rng := rand.New(rand.NewSource(29))
	for _, capacity := range []int{6, 40} {
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
			incoming := randomPool(rng, n.Profile, rng.Intn(3*capacity), maxAge)

			var m view.Merger
			want := referenceRanked(n.Profile, view.MergeInto(&m, n.ID, v.AppendEntries(nil), incoming), maxAge)
			if len(want) > capacity {
				want = want[:capacity]
			}
			p.apply(&pad, n, v, incoming)
			got := v.AppendEntries(nil)
			if len(got) != len(want) {
				t.Fatalf("capacity %d trial %d: view holds %d entries, reference %d", capacity, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("capacity %d trial %d: view[%d] = %+v, reference %+v", capacity, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPurgeKeepsViewOrder pins purge to the filter it replaced: drop the
// entries that aged past MaxAge or that the owner cannot rank, and keep
// the rest in view order, unselected.
func TestPurgeKeepsViewOrder(t *testing.T) {
	const maxAge, capacity = 20, 12
	rng := rand.New(rand.NewSource(61))
	p := New("ring", ringRanker{capacity: capacity}, nil, Options{MaxAge: maxAge, NoRandomFeed: true})
	var pad sim.Pad
	var table view.Table
	table.Resize(1)
	for trial := 0; trial < 1000; trial++ {
		n := &sim.Node{ID: -1, Profile: view.Profile{Index: int32(rng.Intn(16)), Size: 16, Epoch: 3}}
		v := table.Init(0, capacity)
		var want []view.Descriptor
		for _, d := range randomPool(rng, n.Profile, rng.Intn(capacity+1), maxAge) {
			v.Add(d)
			if int(d.Age) <= maxAge && ringDist(n.Profile, d.Profile) < view.RankInf {
				want = append(want, d)
			}
		}
		p.purge(&pad, n, v)
		if got := v.AppendEntries(nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: purge kept %v, want %v", trial, got, want)
		}
	}
}

// fixedDraw is a view.Rand whose Intn returns j and records each bound it
// was asked for.
type fixedDraw struct {
	j      int
	bounds []int
}

func (f *fixedDraw) Intn(n int) int {
	f.bounds = append(f.bounds, n)
	return f.j
}

func (f *fixedDraw) Shuffle(int, func(i, j int)) { panic("payload never shuffles") }

// referencePayload is the replaced payload assembly over fully sorted
// candidates: self, then candidates while the payload is below the gossip
// budget, then — when the sorted list is at least as long as the payload —
// the last slot overwritten by candidate spare[draw(len(spare))] of the
// list past that slot.
func referencePayload(self view.Descriptor, sorted []view.Descriptor, gossip int, randomFeed bool, draw func(n int) int) []view.Descriptor {
	out := []view.Descriptor{self}
	for _, d := range sorted {
		if len(out) >= gossip {
			break
		}
		out = append(out, d)
	}
	if randomFeed && len(sorted) >= len(out) {
		spare := sorted[len(out)-1:]
		out[len(out)-1] = spare[draw(len(spare))]
	}
	return out
}

// TestPayloadMatchesReference pins selectFor's payload: the top Gossip-1
// keys in order, and — for every draw j — the j-th key of the sorted rest
// as the spare, drawn with the rest's length as the bound, exactly as the
// replaced code drew it; without the random feed nothing is drawn.
func TestPayloadMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	self := view.Descriptor{ID: -1}
	for _, gossip := range []int{1, 2, DefaultGossip, sortAbove + 8} {
		for _, randomFeed := range []bool{true, false} {
			p := New("ring", ringRanker{capacity: 6}, nil, Options{Gossip: gossip, NoRandomFeed: !randomFeed})
			var pad sim.Pad
			for trial := 0; trial < 300; trial++ {
				owner := view.Profile{Index: int32(rng.Intn(16)), Size: 16, Epoch: 3}
				pool := randomPool(rng, owner, rng.Intn(90), 20)
				sorted := referenceRanked(owner, pool, math.MaxUint16)
				draws := 1
				if randomFeed && len(sorted) >= gossip {
					draws = len(sorted) - (gossip - 1)
				}
				for j := 0; j < draws; j++ {
					var wantBounds []int
					want := referencePayload(self, sorted, gossip, randomFeed, func(n int) int {
						wantBounds = append(wantBounds, n)
						return j
					})
					draw := &fixedDraw{j: j}
					got := p.payload([]view.Descriptor{self}, pool, p.rankPool(&pad, owner, pool, math.MaxUint16), draw)
					if !slices.Equal(got, want) {
						t.Fatalf("gossip %d feed %v trial %d draw %d: payload %v, reference %v", gossip, randomFeed, trial, j, got, want)
					}
					if !slices.Equal(draw.bounds, wantBounds) {
						t.Fatalf("gossip %d feed %v trial %d: drew with bounds %v, reference %v", gossip, randomFeed, trial, draw.bounds, wantBounds)
					}
				}
			}
		}
	}
}

// countingRanker counts pool-level Rank calls and the candidates they
// covered.
type countingRanker struct {
	Ranker
	calls, candidates int
}

func (c *countingRanker) Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey {
	c.calls++
	c.candidates += len(pool)
	return c.Ranker.Rank(owner, pool, maxAge, keys)
}

// TestRankPoolRanksEachCandidateOnce is the point of the change: every pool
// costs exactly one ranker call, covering each of its candidates once, on
// the payload, apply and purge paths alike, and allocates nothing once
// warm.
func TestRankPoolRanksEachCandidateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counter := &countingRanker{Ranker: ringRanker{capacity: 6}}
	p := New("ring", counter, nil, Options{NoRandomFeed: true})
	n := &sim.Node{ID: 999, Profile: view.Profile{Index: 3, Size: 16, Epoch: 3}}
	pool := randomPool(rng, n.Profile, 64, 20)
	var pad sim.Pad
	var table view.Table
	table.Resize(1)
	v := table.Init(0, 6)
	expect := func(what string, calls, candidates int) {
		t.Helper()
		if counter.calls != calls || counter.candidates != candidates {
			t.Fatalf("%s: %d Rank calls over %d candidates, want %d over %d", what, counter.calls, counter.candidates, calls, candidates)
		}
	}

	p.payload(nil, pool, p.rankPool(&pad, n.Profile, pool, math.MaxUint16), rand.New(rand.NewSource(1)))
	expect("payload", 1, len(pool))
	p.apply(&pad, n, v, pool)
	expect("apply into an empty view", 2, 2*len(pool))
	held := v.Len()
	p.purge(&pad, n, v)
	expect("purge", 3, 2*len(pool)+held)

	if allocs := testing.AllocsPerRun(50, func() { p.rankPool(&pad, n.Profile, pool, math.MaxUint16) }); allocs != 0 {
		t.Fatalf("warmed rankPool allocates %v objects per call", allocs)
	}
}

// TestSelectionAllocationFree pins the warmed selection paths at zero heap
// allocations: payload assembly and apply at a ring's capacity and at a
// hub's (the generic-sort fallback), and whole rounds of a ring overlay
// with and without the random feed (selectFor, apply and purge in place).
func TestSelectionAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{6, 40} {
		p := New("ring", ringRanker{capacity: capacity}, nil, Options{Gossip: capacity})
		n := &sim.Node{ID: 999, Profile: view.Profile{Index: 3, Size: 16, Epoch: 3}}
		pool := randomPool(rng, n.Profile, 3*capacity, 20)
		var pad sim.Pad
		var table view.Table
		table.Resize(1)
		v := table.Init(0, capacity)
		out := make([]view.Descriptor, 0, capacity)
		step := func() {
			out = p.payload(out[:0], pool, p.rankPool(&pad, n.Profile, pool, math.MaxUint16), rng)
			p.apply(&pad, n, v, pool)
		}
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Fatalf("capacity %d: warmed payload + apply allocate %v objects", capacity, allocs)
		}
	}
	for _, opts := range []Options{{}, {NoRandomFeed: true}} {
		e, _ := buildRing(t, 8, 256, opts)
		if _, err := e.Run(30); err != nil {
			t.Fatal(err)
		}
		const rounds = 20
		e.Meter().Reserve(rounds + 1)
		if allocs := testing.AllocsPerRun(rounds, func() { e.RunRound() }); allocs != 0 {
			t.Fatalf("%+v: steady ring round allocates %v objects", opts, allocs)
		}
	}
}
