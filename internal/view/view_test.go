package view

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func desc(id NodeID, age uint16) Descriptor {
	return Descriptor{ID: id, Age: age}
}

// TestDescriptorSizeof pins the in-memory size of the unit every view,
// plan buffer and contact table stores: fields ordered widest first leave
// only Age's padding. The arenas hold millions of these, so a field added
// or reordered shows here before it shows in the heap.
func TestDescriptorSizeof(t *testing.T) {
	if got := unsafe.Sizeof(Profile{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Profile{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Descriptor{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Descriptor{}) = %d, want 40", got)
	}
}

// newView returns an empty view of the given capacity carved from a
// one-slot Table, the way protocols get theirs.
func newView(capacity int) *View {
	var t Table
	t.Resize(1)
	return t.Init(0, capacity)
}

func TestInitClampsCapacity(t *testing.T) {
	v := newView(0)
	if v.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1", v.Cap())
	}
}

func TestAddRespectsCapacity(t *testing.T) {
	v := newView(2)
	if !v.Add(desc(1, 0)) || !v.Add(desc(2, 0)) {
		t.Fatal("first two adds should succeed")
	}
	if v.Add(desc(3, 0)) {
		t.Fatal("add beyond capacity should fail")
	}
	if v.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", v.Len())
	}
}

func TestAddKeepsFresher(t *testing.T) {
	v := newView(4)
	v.Add(desc(1, 5))
	if v.Add(desc(1, 9)) {
		t.Fatal("older duplicate must not replace fresher entry")
	}
	if !v.Add(desc(1, 2)) {
		t.Fatal("fresher duplicate must replace older entry")
	}
	if got := v.At(v.IndexOf(1)).Age; got != 2 {
		t.Fatalf("age = %d, want 2", got)
	}
	if v.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (no duplicate IDs)", v.Len())
	}
}

func TestFresherPrefersNewerEpoch(t *testing.T) {
	older := Descriptor{ID: 1, Age: 0, Profile: Profile{Epoch: 1}}
	newer := Descriptor{ID: 1, Age: 50, Profile: Profile{Epoch: 2}}
	if !newer.Fresher(older) {
		t.Fatal("newer epoch must beat lower age")
	}
	if older.Fresher(newer) {
		t.Fatal("older epoch must lose")
	}
}

func TestRemove(t *testing.T) {
	v := newView(4)
	v.Add(desc(1, 0))
	v.Add(desc(2, 0))
	if !v.Remove(1) {
		t.Fatal("Remove(1) should report true")
	}
	if v.Remove(1) {
		t.Fatal("second Remove(1) should report false")
	}
	if v.Len() != 1 || !v.Contains(2) {
		t.Fatal("only id 2 should remain")
	}
}

func TestAgeAllSaturates(t *testing.T) {
	v := newView(2)
	v.Add(desc(1, ^uint16(0)))
	v.AgeAll()
	if got := v.At(0).Age; got != ^uint16(0) {
		t.Fatalf("age = %d, want saturation at max", got)
	}
}

func TestOldest(t *testing.T) {
	v := newView(4)
	if _, _, ok := v.Oldest(); ok {
		t.Fatal("empty view has no oldest")
	}
	v.Add(desc(1, 3))
	v.Add(desc(2, 7))
	v.Add(desc(3, 5))
	d, _, ok := v.Oldest()
	if !ok || d.ID != 2 {
		t.Fatalf("Oldest() = %v, want id 2", d)
	}
	// A tie on age goes to the lowest position.
	v.Add(desc(4, 7))
	if d, i, _ := v.Oldest(); d.ID != 2 || i != 1 {
		t.Fatalf("Oldest() on a tie = %v at %d, want id 2 at 1", d, i)
	}
}

func TestMergeKeepsFreshest(t *testing.T) {
	var m Merger
	got := MergeInto(&m, 99,
		[]Descriptor{desc(1, 8), desc(2, 1)},
		[]Descriptor{desc(1, 2), desc(3, 0), desc(99, 0), desc(2, 4)})
	want := []Descriptor{desc(1, 2), desc(2, 1), desc(3, 0)}
	if !slices.Equal(got, want) {
		t.Fatalf("MergeInto = %v, want %v (freshest copy, first position, no self)", got, want)
	}
}

func TestRandomSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := newView(10)
	for i := NodeID(0); i < 10; i++ {
		v.Add(desc(i, 0))
	}
	var sampler Sampler
	s := v.RandomSampleInto(rng, 4, nil, &sampler)
	if len(s) != 4 {
		t.Fatalf("len(sample) = %d, want 4", len(s))
	}
	seen := map[NodeID]bool{}
	for _, d := range s {
		if seen[d.ID] {
			t.Fatalf("duplicate id %d in sample", d.ID)
		}
		seen[d.ID] = true
	}
	if got := v.RandomSampleInto(rng, 50, nil, &sampler); len(got) != 10 {
		t.Fatalf("oversized sample should return all %d entries, got %d", 10, len(got))
	}
}

func TestSetCapTruncates(t *testing.T) {
	v := newView(5)
	for i := NodeID(0); i < 5; i++ {
		v.Add(desc(i, 0))
	}
	v.SetCap(2)
	if v.Len() != 2 || v.Cap() != 2 {
		t.Fatalf("after SetCap(2): len=%d cap=%d", v.Len(), v.Cap())
	}
}

// Property: merging arbitrary buffers into a view the way the overlays do
// (MergeInto, then ReplaceRanked over the merged pool) never produces
// duplicates, never includes self, and never exceeds capacity.
func TestMergeProperties(t *testing.T) {
	var m Merger
	f := func(ids []int16, ages []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		v := newView(capacity)
		incoming := make([]Descriptor, 0, len(ids))
		for i, id := range ids {
			var age uint16
			if i < len(ages) {
				age = ages[i]
			}
			incoming = append(incoming, desc(NodeID(id), age))
		}
		const self = NodeID(7)
		pool := MergeInto(&m, self, v.entries, incoming)
		keys := make([]RankKey, len(pool))
		for i := range keys {
			keys[i].Idx = int32(i)
		}
		v.ReplaceRanked(pool, keys)
		if v.Len() > capacity {
			return false
		}
		seen := map[NodeID]bool{}
		for _, id := range v.IDs() {
			if id == self || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is idempotent in size — adding the same descriptor twice
// never grows the view.
func TestAddIdempotentSize(t *testing.T) {
	f := func(id int16, age uint16) bool {
		v := newView(4)
		v.Add(desc(NodeID(id), age))
		n := v.Len()
		v.Add(desc(NodeID(id), age))
		return v.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
