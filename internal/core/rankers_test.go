package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sosf/internal/sim"
	"sosf/internal/spec"
	"sosf/internal/vicinity"
	"sosf/internal/view"
)

// perPairUO1 and perPairCore are the rankers' per-candidate definitions
// from before a pool was ranked in one call, kept as the oracle the
// batched rankers must reproduce key for key.
func perPairUO1(a *Allocator, owner, cand view.Profile) float64 {
	if cand.Epoch != a.Epoch() || owner.Epoch != a.Epoch() {
		return view.RankInf
	}
	if cand.Comp == owner.Comp {
		return mix01(owner.Key, cand.Key)
	}
	return foreignPenalty + mix01(owner.Key, cand.Key)
}

func perPairCore(a *Allocator, owner, cand view.Profile) float64 {
	if owner.Comp < 0 || cand.Comp != owner.Comp ||
		cand.Epoch != a.Epoch() || owner.Epoch != a.Epoch() {
		return view.RankInf
	}
	return a.Shape(owner.Comp).Rank(a.Dense(owner), a.Dense(cand))
}

// perPairKeys ranks pool the per-pair way: one rank call per candidate
// no older than maxAge, a key for each rank below RankInf, in pool order.
func perPairKeys(rank func(owner, cand view.Profile) float64, owner view.Profile, pool []view.Descriptor, maxAge int) []view.RankKey {
	var keys []view.RankKey
	for i, d := range pool {
		if int(d.Age) > maxAge {
			continue
		}
		if r := rank(owner, d.Profile); r < view.RankInf {
			keys = append(keys, view.RankKey{Rank: r, ID: d.ID, Age: d.Age, Idx: int32(i)})
		}
	}
	return keys
}

// mixedTopo has one component of each gradient family, so the core ranker
// dispatches to several shapes.
func mixedTopo() *spec.Topology {
	return &spec.Topology{Name: "mixed", Components: []spec.Component{
		{Name: "ring", Shape: "ring", Weight: 1},
		{Name: "star", Shape: "star", Weight: 1, Params: map[string]int64{"hubs": 2}},
		{Name: "clique", Shape: "clique", Weight: 1},
		{Name: "grid", Shape: "grid", Weight: 1, Params: map[string]int64{"width": 4}},
		{Name: "tree", Shape: "tree", Weight: 1},
	}}
}

// TestBatchedRankersMatchPerPair pins the pool-level uo1Ranker and
// coreRanker to their per-pair definitions on pools mixing stale epochs,
// foreign components, owners without a component and aged-out entries,
// with healing on and off, across kills before and after FlushRanks (so
// Dense is not the identity), joins beyond the rank table, and a
// reconfiguration that leaves the old profiles stale.
func TestBatchedRankersMatchPerPair(t *testing.T) {
	for _, heal := range []bool{true, false} {
		a, err := NewAllocator(mixedTopo())
		if err != nil {
			t.Fatal(err)
		}
		a.SetHealing(heal)
		e := newPopulation(t, 200, 11)
		a.AssignAll(e)
		rng := rand.New(rand.NewSource(23))
		var seen []view.Profile // every profile handed out, stale ones included

		check := func(stage string) {
			t.Helper()
			for _, slot := range e.AliveSlots() {
				seen = append(seen, e.Node(slot).Profile)
			}
			rankers := []struct {
				name    string
				batched vicinity.Ranker
				perPair func(owner, cand view.Profile) float64
			}{
				{"uo1", uo1Ranker{alloc: a}, func(o, c view.Profile) float64 { return perPairUO1(a, o, c) }},
				{"core", coreRanker{alloc: a}, func(o, c view.Profile) float64 { return perPairCore(a, o, c) }},
			}
			for trial := 0; trial < 300; trial++ {
				owner := seen[len(seen)-1-rng.Intn(len(e.AliveSlots()))]
				switch rng.Intn(8) {
				case 0:
					owner.Comp = -1
				case 1:
					owner.Epoch++
				}
				pool := make([]view.Descriptor, rng.Intn(60))
				for i := range pool {
					pool[i] = view.Descriptor{
						ID:      view.NodeID(i),
						Profile: seen[rng.Intn(len(seen))],
						Age:     uint16(rng.Intn(24)),
					}
					if rng.Intn(8) == 0 {
						pool[i].Profile.Epoch = a.Epoch() + 1
					}
				}
				for _, maxAge := range []int{math.MaxUint16, 20} {
					for _, r := range rankers {
						got := r.batched.Rank(owner, pool, maxAge, nil)
						want := perPairKeys(r.perPair, owner, pool, maxAge)
						if !slices.Equal(got, want) {
							t.Fatalf("heal %v, %s, %s ranker, owner %v, maxAge %d:\nbatched  %v\nper pair %v",
								heal, stage, r.name, owner, maxAge, got, want)
						}
					}
				}
			}
		}

		check("fresh assignment")
		for c := 0; c < a.Components(); c++ {
			killComp(t, a, e, view.ComponentID(c), 7)
		}
		check("kills before FlushRanks")
		a.FlushRanks()
		if heal && !denseMoves(a, e) {
			t.Fatal("Dense left every index in place after kills and FlushRanks")
		}
		check("kills after FlushRanks")
		for _, slot := range e.AddNodes(60) {
			n := e.Node(slot)
			n.Profile.Key = e.Rand().Uint64()
			a.AssignJoin(n)
		}
		check("joins beyond the table before FlushRanks")
		a.FlushRanks()
		check("joins after FlushRanks")
		if err := a.Reconfigure(e, ringsTopo(3)); err != nil {
			t.Fatal(err)
		}
		check("after a reconfiguration")
	}
}

// denseMoves reports whether Dense translates some alive member's index.
func denseMoves(a *Allocator, e *sim.Engine) bool {
	for _, slot := range e.AliveSlots() {
		if p := e.Node(slot).Profile; a.Dense(p).Index != p.Index {
			return true
		}
	}
	return false
}
