package view

// Tests pinning the edge cases the scratch-buffer code must preserve: the
// sampling guards, draw-for-draw equivalence of RandomSampleInto with
// math/rand, Penalize boundary behavior, the MergeInto ≡ map-based
// reference property on random inputs, and the Merger's table growth and
// generation wrap-around.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRandomSampleGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newView(4)
	v.Add(desc(1, 0))
	v.Add(desc(2, 0))

	// n <= 0 must not panic (the pre-guard code sliced perm[:n]) and must
	// not consume randomness.
	before := rng.Int63()
	rng = rand.New(rand.NewSource(1))
	var s Sampler
	if got := v.RandomSampleInto(rng, -1, nil, &s); got != nil {
		t.Fatalf("RandomSampleInto(-1) = %v, want nil", got)
	}
	if got := v.RandomSampleInto(rng, 0, nil, &s); got != nil {
		t.Fatalf("RandomSampleInto(0) = %v, want nil", got)
	}
	if after := rng.Int63(); after != before {
		t.Fatal("n <= 0 must not consume random draws")
	}

	empty := newView(4)
	if got := empty.RandomSampleInto(rng, 3, nil, &s); got != nil {
		t.Fatalf("RandomSampleInto on empty view = %v, want nil dst", got)
	}
}

// TestRandomSampleIntoEquivalence checks RandomSampleInto against
// math/rand draw-for-draw — a Shuffle of the whole view when n covers it,
// the first n of a Perm otherwise — with the same output and the same
// post-call RNG state, for partial, exact-size and oversized requests: a
// seeded run's samples depend on it.
func TestRandomSampleIntoEquivalence(t *testing.T) {
	for _, n := range []int{1, 3, 9, 10, 25} {
		v := newView(10)
		for i := NodeID(0); i < 10; i++ {
			v.Add(desc(i, uint16(i)))
		}
		rngA := rand.New(rand.NewSource(42))
		rngB := rand.New(rand.NewSource(42))
		var s Sampler
		var a []Descriptor
		if n >= v.Len() {
			a = v.AppendEntries(nil)
			rngA.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		} else {
			for _, p := range rngA.Perm(v.Len())[:n] {
				a = append(a, v.At(p))
			}
		}
		b := v.RandomSampleInto(rngB, n, nil, &s)
		if len(a) != len(b) {
			t.Fatalf("n=%d: len %d vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: sample diverges at %d: %v vs %v", n, i, a[i], b[i])
			}
		}
		if rngA.Int63() != rngB.Int63() {
			t.Fatalf("n=%d: RNG states diverge after sampling", n)
		}
	}
}

// TestRandomSampleIntoAppends checks Into semantics: dst's existing prefix
// is preserved and the scratch sampler can be shared across views.
func TestRandomSampleIntoAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := newView(8)
	for i := NodeID(0); i < 8; i++ {
		v.Add(desc(i, 0))
	}
	var s Sampler
	dst := []Descriptor{desc(99, 1)}
	dst = v.RandomSampleInto(rng, 3, dst, &s)
	if len(dst) != 4 || dst[0] != desc(99, 1) {
		t.Fatalf("dst prefix not preserved: %v", dst)
	}
	w := newView(4)
	w.Add(desc(50, 0))
	w.Add(desc(51, 0))
	if got := w.RandomSampleInto(rng, 1, dst[:0], &s); len(got) != 1 {
		t.Fatalf("sampler reuse across views failed: %v", got)
	}
}

func TestPenalizeSaturates(t *testing.T) {
	v := newView(2)
	v.Add(desc(1, ^uint16(0)-3))
	if !v.Penalize(1, 10) {
		t.Fatal("Penalize on a present ID must report true")
	}
	if got := v.At(v.IndexOf(1)).Age; got != ^uint16(0) {
		t.Fatalf("age = %d, want saturation at %d", got, ^uint16(0))
	}
	// Saturated stays saturated.
	v.Penalize(1, ^uint16(0))
	if got := v.At(v.IndexOf(1)).Age; got != ^uint16(0) {
		t.Fatalf("age after second penalty = %d, want %d", got, ^uint16(0))
	}
	if v.Penalize(42, 1) {
		t.Fatal("Penalize on a missing ID must report false")
	}
}

func TestSetCapClampsToOne(t *testing.T) {
	v := newView(4)
	v.Add(desc(1, 0))
	v.Add(desc(2, 0))
	v.SetCap(-3)
	if v.Cap() != 1 || v.Len() != 1 {
		t.Fatalf("after SetCap(-3): cap=%d len=%d, want 1/1", v.Cap(), v.Len())
	}
}

func TestUpsertMatchesAddPlusContains(t *testing.T) {
	reference := newView(2)
	probe := newView(2)
	ds := []Descriptor{
		desc(1, 4), desc(2, 2), desc(1, 1), desc(1, 9), desc(3, 0), desc(2, 5),
	}
	for _, d := range ds {
		wantChanged := reference.Add(d)
		wantHeld := reference.Contains(d.ID)
		changed, held := probe.Upsert(d)
		if changed != wantChanged || held != wantHeld {
			t.Fatalf("Upsert(%v) = (%v, %v), want (%v, %v)",
				d, changed, held, wantChanged, wantHeld)
		}
	}
}

func TestAppendEntriesAndIDs(t *testing.T) {
	v := newView(3)
	v.Add(desc(4, 1))
	v.Add(desc(5, 2))
	entries := v.AppendEntries([]Descriptor{desc(9, 9)})
	if len(entries) != 3 || entries[0] != desc(9, 9) || entries[1].ID != 4 || entries[2].ID != 5 {
		t.Fatalf("AppendEntries = %v", entries)
	}
	ids := v.AppendIDs([]NodeID{9})
	if len(ids) != 3 || ids[0] != 9 || ids[1] != 4 || ids[2] != 5 {
		t.Fatalf("AppendIDs = %v", ids)
	}
}

func TestReplaceRankedGathersInKeyOrder(t *testing.T) {
	pool := []Descriptor{desc(7, 1), desc(8, 2), desc(9, 3), desc(6, 4)}
	keys := []RankKey{{Idx: 2}, {Idx: 0}, {Idx: 3}}
	v := newView(2)
	v.Add(desc(1, 0))
	v.ReplaceRanked(pool, keys)
	if v.Len() != 2 || v.At(0) != pool[2] || v.At(1) != pool[0] {
		t.Fatalf("ReplaceRanked kept %v, want the first two keys' entries", v.entries)
	}
	v.ReplaceRanked(pool, nil)
	if v.Len() != 0 {
		t.Fatalf("ReplaceRanked with no keys left %d entries", v.Len())
	}
}

// TestRankKeyCompareOrder pins the key order: rank first, then the younger
// entry, then the lower ID; the pool position never takes part.
func TestRankKeyCompareOrder(t *testing.T) {
	ordered := []RankKey{
		{Rank: 0.5, Age: 9, ID: 9, Idx: 0},
		{Rank: 1, Age: 0, ID: 7, Idx: 5},
		{Rank: 1, Age: 2, ID: 3, Idx: 1},
		{Rank: 1, Age: 2, ID: 4, Idx: 0},
		{Rank: RankInf - 1, Age: 0, ID: 0, Idx: 2},
	}
	for i, a := range ordered {
		for j, b := range ordered {
			got, want := a.Compare(b), 0
			switch {
			case i < j:
				want = -1
			case i > j:
				want = 1
			}
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("%+v.Compare(%+v) = %d, want sign %d", a, b, got, want)
			}
		}
	}
}

// quickBuffers derives a deterministic set of descriptor buffers from
// fuzz-style raw inputs: IDs collide often (int8 domain) so the
// freshest-wins dedup paths are exercised heavily.
func quickBuffers(ids []int8, ages []uint16, epochs []uint8, cuts []uint8) [][]Descriptor {
	ds := make([]Descriptor, len(ids))
	for i, id := range ids {
		var age uint16
		if i < len(ages) {
			age = ages[i]
		}
		var epoch uint32
		if i < len(epochs) {
			epoch = uint32(epochs[i] % 3)
		}
		ds[i] = Descriptor{ID: NodeID(id), Age: age, Profile: Profile{Epoch: epoch}}
	}
	// Split ds into up to len(cuts)+1 buffers at the cut offsets.
	var out [][]Descriptor
	start := 0
	for _, c := range cuts {
		cut := start + int(c)%(len(ds)-start+1)
		out = append(out, ds[start:cut])
		start = cut
	}
	out = append(out, ds[start:])
	return out
}

// referenceMerge is the map-based merge the Merger's open-addressed table
// replaced, kept here as the test oracle: drop self and InvalidNode, first
// occurrence fixes the position, freshest copy wins.
func referenceMerge(self NodeID, buffers ...[]Descriptor) []Descriptor {
	var out []Descriptor
	pos := map[NodeID]int{}
	for _, b := range buffers {
		for _, d := range b {
			if d.ID == self || d.ID == InvalidNode {
				continue
			}
			if i, seen := pos[d.ID]; !seen {
				pos[d.ID] = len(out)
				out = append(out, d)
			} else if d.Fresher(out[i]) {
				out[i] = d
			}
		}
	}
	return out
}

// Property: MergeInto through a (reused) Merger produces exactly what the
// map-based reference produces, buffer for buffer, on random inputs.
func TestMergeIntoMatchesReference(t *testing.T) {
	var shared Merger // deliberately reused across every check
	f := func(ids []int8, ages []uint16, epochs []uint8, cuts []uint8, selfRaw int8) bool {
		buffers := quickBuffers(ids, ages, epochs, cuts)
		self := NodeID(selfRaw)
		want := referenceMerge(self, buffers...)
		return slices.Equal(MergeInto(&shared, self, buffers...), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// starHubPool is a pool far beyond the initial table: a 600-entry star-hub
// view plus a gossip buffer that half overlaps it with fresher copies and
// carries the two IDs a merge must drop.
func starHubPool(self NodeID) (hub *View, incoming []Descriptor) {
	hub = newView(600)
	for i := 0; i < 600; i++ {
		hub.Add(desc(NodeID(1000+7*i), uint16(i%9+1)))
	}
	incoming = []Descriptor{desc(self, 0), desc(InvalidNode, 0)}
	for i := 0; i < 40; i++ {
		incoming = append(incoming, desc(NodeID(1000+7*(580+i)), 0))
	}
	return hub, incoming
}

// TestMergerGrowsPastInitialTable merges the star-hub pool through a fresh
// Merger (repeated ×2 growth mid-merge, entries re-indexed each time) and
// again through the grown one, via both AddView and AddSlice.
func TestMergerGrowsPastInitialTable(t *testing.T) {
	const self = NodeID(1000 + 7*3)
	hub, incoming := starHubPool(self)
	want := referenceMerge(self, hub.entries, incoming)
	if len(want) != 599+20 {
		t.Fatalf("reference merge has %d entries, want 619", len(want))
	}
	var m Merger
	for lap := 0; lap < 2; lap++ {
		m.Begin(self)
		m.AddView(hub)
		m.AddSlice(incoming)
		if !slices.Equal(m.Result(), want) {
			t.Fatalf("lap %d: merge through AddView diverges from the reference", lap)
		}
	}
	if len(m.tab) < 2*len(want) || len(m.tab)&(len(m.tab)-1) != 0 {
		t.Fatalf("table has %d cells for %d entries: want a power of two at load <= 1/2", len(m.tab), len(want))
	}
	// A small merge right after a large one must not see its leftovers.
	small := []Descriptor{desc(1000, 3), desc(5, 1), desc(1000, 2)}
	if got := MergeInto(&m, self, small); !slices.Equal(got, referenceMerge(self, small)) {
		t.Fatalf("merge after growth = %v", got)
	}
}

// TestMergerGenerationWrap forces the generation counter over its maximum:
// Begin must clear the table and restart at 1, so a cell stamped in the
// previous cycle with the very generation the new cycle reuses (here ID 77
// at position 4 of the first merge) never reads as current.
func TestMergerGenerationWrap(t *testing.T) {
	const self = NodeID(2)
	a := []Descriptor{desc(1, 4), desc(2, 0), desc(3, 1), desc(InvalidNode, 0)}
	b := []Descriptor{desc(3, 0), desc(9, 9), desc(1, 7)}
	var m Merger
	MergeInto(&m, self, []Descriptor{desc(10, 0), desc(11, 0), desc(12, 0), desc(13, 0), desc(77, 0)})
	if m.gen != 1 {
		t.Fatalf("first merge of a zero Merger ran at generation %d, want 1", m.gen)
	}
	m.gen = ^uint32(0) - 1
	for i, in := range [][][]Descriptor{
		{a, b},             // the last generation before the wrap
		{{desc(77, 1)}, a}, // generation 1 again
		{b},
	} {
		if got, want := MergeInto(&m, self, in...), referenceMerge(self, in...); !slices.Equal(got, want) {
			t.Fatalf("merge %d across the wrap (generation %d) = %v, want %v", i, m.gen, got, want)
		}
	}
	if m.gen != 2 {
		t.Fatalf("generation after the wrap = %d, want 2 (restart at 1, never 0)", m.gen)
	}
}

// TestWarmedMergerAllocationFree: once the table and output buffer have
// grown, merging allocates nothing — gossip-sized or hub-sized.
func TestWarmedMergerAllocationFree(t *testing.T) {
	const self = NodeID(1000 + 7*3)
	hub, incoming := starHubPool(self)
	var m Merger
	merge := func() {
		m.Begin(self)
		m.AddView(hub)
		m.AddSlice(incoming)
		MergeInto(&m, self, incoming, incoming[:10])
	}
	merge()
	if allocs := testing.AllocsPerRun(100, merge); allocs != 0 {
		t.Fatalf("warmed Merger allocates %v objects per merge, want 0", allocs)
	}
}

// Property: a Merger result never contains self, InvalidNode, or duplicate
// IDs, and always holds the freshest copy per ID.
func TestMergerInvariants(t *testing.T) {
	var m Merger
	f := func(ids []int8, ages []uint16, epochs []uint8, cuts []uint8, selfRaw int8) bool {
		buffers := quickBuffers(ids, ages, epochs, cuts)
		self := NodeID(selfRaw)
		out := MergeInto(&m, self, buffers...)
		seen := map[NodeID]Descriptor{}
		for _, d := range out {
			if d.ID == self || d.ID == InvalidNode {
				return false
			}
			if _, dup := seen[d.ID]; dup {
				return false
			}
			seen[d.ID] = d
		}
		for _, b := range buffers {
			for _, d := range b {
				if d.ID == self || d.ID == InvalidNode {
					continue
				}
				if d.Fresher(seen[d.ID]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
