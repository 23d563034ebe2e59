package view

import "math/bits"

// Rand is the minimal random-source interface view selection draws from.
// Both *math/rand.Rand and the simulation engine's counter-based per-node
// streams satisfy it, so the same selection code serves the serial and the
// worker-sharded engine.
type Rand interface {
	Intn(n int) int
	Shuffle(n int, swap func(i, j int))
}

// View is a bounded partial view: an ordered collection of descriptors with
// unique node IDs, bounded by a capacity. The zero value is unusable; views
// are carved by a Table (Init). Views are not safe for concurrent use — the
// simulation engine is single-threaded by design (determinism).
type View struct {
	capacity int
	entries  []Descriptor
}

// Len returns the number of descriptors currently held.
func (v *View) Len() int { return len(v.entries) }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.capacity }

// SetCap changes the capacity. If the view holds more entries than the new
// capacity, the tail entries are dropped.
func (v *View) SetCap(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	v.capacity = capacity
	if len(v.entries) > capacity {
		v.entries = v.entries[:capacity]
	}
}

// At returns the descriptor at position i. It panics if i is out of range,
// mirroring slice semantics.
func (v *View) At(i int) Descriptor { return v.entries[i] }

// AppendEntries appends the current descriptors to dst and returns the
// extended slice. Passing a reused scratch buffer (dst[:0]) makes the read
// allocation-free in steady state.
func (v *View) AppendEntries(dst []Descriptor) []Descriptor {
	return append(dst, v.entries...)
}

// IDs returns the node IDs currently held, in view order.
func (v *View) IDs() []NodeID {
	return v.AppendIDs(make([]NodeID, 0, len(v.entries)))
}

// AppendIDs appends the node IDs currently held to dst, in view order, and
// returns the extended slice.
func (v *View) AppendIDs(dst []NodeID) []NodeID {
	for _, d := range v.entries {
		dst = append(dst, d.ID)
	}
	return dst
}

// IndexOf returns the position of id in the view, or -1.
func (v *View) IndexOf(id NodeID) int {
	for i, d := range v.entries {
		if d.ID == id {
			return i
		}
	}
	return -1
}

// Contains reports whether the view holds a descriptor for id.
func (v *View) Contains(id NodeID) bool { return v.IndexOf(id) >= 0 }

// Add inserts d if there is spare capacity and no descriptor for the same
// node exists; if one exists, the fresher of the two is kept. It reports
// whether the view changed.
func (v *View) Add(d Descriptor) bool {
	changed, _ := v.Upsert(d)
	return changed
}

// Upsert inserts d exactly like Add, and additionally reports whether the
// view now holds a descriptor for d.ID (held). It exists as a fast path for
// merge loops that would otherwise pay a second IndexOf scan for
// `v.Add(d) || v.Contains(d.ID)`.
func (v *View) Upsert(d Descriptor) (changed, held bool) {
	if i := v.IndexOf(d.ID); i >= 0 {
		if d.Fresher(v.entries[i]) {
			v.entries[i] = d
			return true, true
		}
		return false, true
	}
	if len(v.entries) >= v.capacity {
		return false, false
	}
	v.entries = append(v.entries, d)
	return true, true
}

// Remove deletes the descriptor for id, reporting whether it was present.
func (v *View) Remove(id NodeID) bool {
	i := v.IndexOf(id)
	if i < 0 {
		return false
	}
	v.RemoveAt(i)
	return true
}

// RemoveAt deletes the descriptor at position i (order not preserved).
func (v *View) RemoveAt(i int) {
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.entries = v.entries[:last]
}

// AgeAll increments the age of every descriptor (saturating).
func (v *View) AgeAll() {
	for i := range v.entries {
		if v.entries[i].Age < ^uint16(0) {
			v.entries[i].Age++
		}
	}
}

// Penalize adds delta to the age of the descriptor for id (saturating),
// reporting whether it was present. Failure detectors use this to mark a
// peer as suspect after a failed exchange without evicting it outright —
// a dead peer keeps accumulating penalties until it ages out, while a peer
// behind a lossy link recovers when fresh descriptors arrive.
func (v *View) Penalize(id NodeID, delta uint16) bool {
	i := v.IndexOf(id)
	if i < 0 {
		return false
	}
	if age := uint32(v.entries[i].Age) + uint32(delta); age < uint32(^uint16(0)) {
		v.entries[i].Age = uint16(age)
	} else {
		v.entries[i].Age = ^uint16(0)
	}
	return true
}

// Oldest returns the descriptor with the highest age (ties broken by the
// lowest position) and its index. ok is false for an empty view.
func (v *View) Oldest() (d Descriptor, idx int, ok bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, -1, false
	}
	for i := 1; i < len(v.entries); i++ {
		if v.entries[i].Age > v.entries[idx].Age {
			idx = i
		}
	}
	return v.entries[idx], idx, true
}

// Random returns a uniformly random descriptor. ok is false for an empty
// view.
func (v *View) Random(rng Rand) (Descriptor, bool) {
	if len(v.entries) == 0 {
		return Descriptor{}, false
	}
	return v.entries[rng.Intn(len(v.entries))], true
}

// Sampler is reusable scratch for RandomSampleInto: it holds the permutation
// buffer a partial sample needs, so steady-state sampling allocates nothing.
// The zero value is ready to use. A Sampler may be shared by any number of
// views as long as calls do not overlap.
type Sampler struct {
	perm []int
}

// RandomSampleInto appends up to n distinct descriptors chosen uniformly at
// random, in random order, to dst and returns the extended slice. It draws
// from rng like math/rand (Shuffle when n covers the view, a Perm-equivalent
// otherwise). n <= 0 appends nothing and consumes no randomness.
func (v *View) RandomSampleInto(rng Rand, n int, dst []Descriptor, s *Sampler) []Descriptor {
	return SampleInto(rng, v.entries, n, dst, s)
}

// SampleInto is RandomSampleInto over a raw descriptor buffer: it appends up
// to n distinct elements of src, chosen uniformly at random and in random
// order, to dst and returns the extended slice. src is not modified.
// Protocols use it to sample from ad-hoc candidate pools (e.g. "the view
// minus the exchange partner") without mutating the view they were built
// from — the read-only discipline the parallel plan phase requires.
func SampleInto(rng Rand, src []Descriptor, n int, dst []Descriptor, s *Sampler) []Descriptor {
	if n <= 0 || len(src) == 0 {
		return dst
	}
	if n >= len(src) {
		base := len(dst)
		dst = append(dst, src...)
		out := dst[base:]
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return dst
	}
	// Replicate rand.Perm draw-for-draw into the reusable buffer.
	if cap(s.perm) < len(src) {
		s.perm = make([]int, len(src))
	}
	perm := s.perm[:len(src)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, p := range perm[:n] {
		dst = append(dst, src[p])
	}
	return dst
}

// RankKey is the compact sort key of one ranked candidate: the rank its
// owner gave it, the age and ID that break rank ties, and its position in
// the candidate pool it was ranked from. Overlays rank a pool once into a
// scratch []RankKey, select the best keys instead of moving the (larger)
// descriptors, and gather only the entries they keep.
type RankKey struct {
	Rank float64
	ID   NodeID
	Age  uint16
	Idx  int32
}

// Compare orders keys by (Rank, Age, ID), best first. IDs are unique within
// a pool, so this is a total order: every algorithm that sorts or selects
// by it keeps the same keys in the same order.
func (k RankKey) Compare(o RankKey) int {
	if k.Rank != o.Rank {
		if k.Rank < o.Rank {
			return -1
		}
		return 1
	}
	if k.Age != o.Age {
		return int(k.Age) - int(o.Age)
	}
	if k.ID != o.ID {
		if k.ID < o.ID {
			return -1
		}
		return 1
	}
	return 0
}

// ReplaceRanked replaces the view's contents with pool[k.Idx] for the first
// `capacity` keys, in key order. It performs no checks of its own; pool
// must not alias the view's storage.
func (v *View) ReplaceRanked(pool []Descriptor, keys []RankKey) {
	if len(keys) > v.capacity {
		keys = keys[:v.capacity]
	}
	v.entries = v.entries[:0]
	for _, k := range keys {
		v.entries = append(v.entries, pool[k.Idx])
	}
}

// Merger is the reusable scratch state behind descriptor-buffer merging: a
// deduplication index plus an output buffer, both retained across calls so
// steady-state merges allocate nothing. The zero value is ready to use.
// A Merger is not safe for concurrent use; the parallel engine keeps one
// per worker (inside each sim.Pad), never sharing a merger across shards.
//
// The index is an open-addressed table (linear probing, power-of-two size,
// load at most ½) of positions into out, each cell stamped with the
// generation of the merge that wrote it: a cell whose stamp is not the
// current generation is empty, so Begin empties the table by bumping the
// generation instead of clearing it.
type Merger struct {
	self NodeID
	out  []Descriptor
	tab  []mergeCell
	gen  uint32
}

// mergeCell maps the ID of out[pos] to pos for the merge stamped gen.
type mergeCell struct {
	gen uint32
	pos int32
}

// mergerMinTable is the initial table size: room for a 32-entry pool, which
// covers a gossip-sized merge without growing.
const mergerMinTable = 64

// Begin resets the merger for a new merge that excludes self (and
// InvalidNode) from its output.
func (m *Merger) Begin(self NodeID) {
	m.self = self
	m.out = m.out[:0]
	m.gen++
	if m.gen == 0 {
		// The generation wrapped (a long run does reach 2³² merges):
		// cells stamped by the previous cycle would read as current.
		clear(m.tab)
		m.gen = 1
	}
}

// AddSlice folds a descriptor buffer into the merge: first occurrence fixes
// the output position, later duplicates keep the freshest copy.
func (m *Merger) AddSlice(ds []Descriptor) {
	for i := range ds {
		m.add(&ds[i])
	}
}

// AddView folds a view's entries into the merge without copying them out
// first.
func (m *Merger) AddView(v *View) {
	for i := range v.entries {
		m.add(&v.entries[i])
	}
}

func (m *Merger) add(d *Descriptor) {
	if d.ID == m.self || d.ID == InvalidNode {
		return
	}
	if 2*len(m.out) >= len(m.tab) {
		m.grow()
	}
	c := m.cell(d.ID)
	if c.gen == m.gen {
		if d.Fresher(m.out[c.pos]) {
			m.out[c.pos] = *d
		}
		return
	}
	*c = mergeCell{gen: m.gen, pos: int32(len(m.out))}
	m.out = append(m.out, *d)
}

// cell returns the table cell holding id, or the empty cell where id
// belongs. The table is never more than half full, so the probe ends.
func (m *Merger) cell(id NodeID) *mergeCell {
	mask := uint64(len(m.tab) - 1)
	// Fibonacci hashing: the top bits of the product spread the
	// sequential IDs of a simulation evenly over the table.
	for i := uint64(id) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(mask); ; i = (i + 1) & mask {
		c := &m.tab[i]
		if c.gen != m.gen || m.out[c.pos].ID == id {
			return c
		}
	}
}

// grow doubles the table and re-indexes the entries merged so far.
func (m *Merger) grow() {
	m.tab = make([]mergeCell, max(mergerMinTable, 2*len(m.tab)))
	for pos, d := range m.out {
		*m.cell(d.ID) = mergeCell{gen: m.gen, pos: int32(pos)}
	}
}

// Result returns the merged buffer: deduplicated (freshest copy wins), in
// first-occurrence order, without self. The slice is scratch owned by the
// merger — callers may filter or sort it in place, but it is only valid
// until the next Begin.
func (m *Merger) Result() []Descriptor { return m.out }

// MergeInto merges descriptor buffers through dst's reusable scratch,
// dropping self and keeping the freshest descriptor per node ID, and
// returns dst.Result(). The result order is deterministic: it follows first
// occurrence in the concatenated input.
func MergeInto(dst *Merger, self NodeID, buffers ...[]Descriptor) []Descriptor {
	dst.Begin(self)
	for _, b := range buffers {
		dst.AddSlice(b)
	}
	return dst.Result()
}
