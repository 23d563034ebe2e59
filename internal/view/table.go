package view

import "sosf/internal/arena"

// Table stores one protocol's per-slot views as dense struct-of-arrays
// state: the View headers live in one contiguous slice indexed by slot, and
// their descriptor entries are carved back-to-back from a shared chunked
// arena, so a population's views are a few large arrays the round phases
// stream through in slot order — not one heap object per node. The zero
// value is an empty table ready for Resize.
//
// Tables are not safe for concurrent structural mutation; Resize and Init
// run between rounds, while phases only touch the views of their own slots.
type Table struct {
	views []View
	arena []Descriptor
}

// Resize sets the table to cover exactly n slots: new slots get empty,
// zero-capacity views (each still needs an Init before use), and the
// views beyond n are dropped (restore paths shrink back to the
// snapshotted population).
func (t *Table) Resize(n int) {
	for len(t.views) < n {
		t.views = append(t.views, View{})
	}
	t.views = t.views[:n]
}

// At returns the view at slot. The pointer aims into the dense header
// array: it is stable until the next Resize, so phases may use it freely
// but nothing should retain it across node joins.
func (t *Table) At(slot int) *View { return &t.views[slot] }

// Init (re)initializes slot's view as empty with the given capacity
// (min 1), carving entry storage from the table's arena. Storage already
// carved for the slot is reused when large enough — a node re-joining a
// slot costs no allocation.
func (t *Table) Init(slot, capacity int) *View {
	if capacity < 1 {
		capacity = 1
	}
	v := &t.views[slot]
	if cap(v.entries) < capacity {
		v.entries = arena.Carve(&t.arena, capacity)
	}
	v.entries = v.entries[:0]
	v.capacity = capacity
	return v
}
