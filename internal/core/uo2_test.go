package core

import (
	"testing"
	"unsafe"

	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/view"
)

// TestUO2EntrySizeof pins a contact-table row at a descriptor plus its
// birth round: an empty row is marked by view.InvalidNode, not a flag that
// would pad the row to 56 bytes.
func TestUO2EntrySizeof(t *testing.T) {
	if got := unsafe.Sizeof(uo2Entry{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(uo2Entry{}) = %d, want 48", got)
	}
}

// TestUO2PlanSizeof pins a plan record at the timed-out partner, the
// published table's length and the timeout flag: the table itself lives in
// the engine's plan region, so a slice header here is a regression.
func TestUO2PlanSizeof(t *testing.T) {
	if got := unsafe.Sizeof(uo2Plan{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(uo2Plan{}) = %d, want 48", got)
	}
}

// TestUO2RestoreRejectsContactWithoutNode feeds RestoreSlot a row flagged
// valid whose descriptor carries view.InvalidNode: the table marks empty
// rows with that ID, so such a row would be counted yet read as empty.
func TestUO2RestoreRejectsContactWithoutNode(t *testing.T) {
	_, _, u := buildUO2(t, 1, 2, 2)
	var w snap.Writer
	w.Len(1)
	w.Bool(true)
	snap.WriteDescriptor(&w, view.Descriptor{ID: view.InvalidNode})
	w.Int(0)
	if err := u.RestoreSlot(snap.NewBytesReader(w.Encoded()), 0); err == nil {
		t.Fatal("RestoreSlot accepted a valid row with no node ID")
	}
}

// buildUO2 wires an engine with peer sampling + UO2 only, over an
// allocator with k ring components.
func buildUO2(t *testing.T, seed int64, nodes, comps int) (*sim.Engine, *Allocator, *UO2) {
	t.Helper()
	alloc, err := NewAllocator(ringsTopo(comps))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.New(seed)
	rps := peersampling.New()
	e.Register(rps)
	u := NewUO2(alloc, rps)
	e.Register(u)
	slots := e.AddNodes(nodes)
	for _, s := range slots {
		e.Node(s).Profile.Key = e.Rand().Uint64()
	}
	alloc.AssignAll(e)
	for _, s := range slots {
		e.InitNode(s)
	}
	return e, alloc, u
}

func TestUO2FullCoverage(t *testing.T) {
	e, _, u := buildUO2(t, 1, 300, 6)
	if _, err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	for _, slot := range e.AliveSlots() {
		if got := u.Coverage(slot); got != 5 {
			t.Fatalf("slot %d covers %d foreign components, want 5", slot, got)
		}
		// Every contact must actually belong to the component it is
		// filed under, and never to the node's own component.
		self := e.Node(slot)
		for _, row := range u.states[slot].entries {
			if !row.valid() {
				continue
			}
			d := row.d
			if d.Profile.Comp == self.Profile.Comp {
				t.Fatalf("slot %d keeps a same-component contact", slot)
			}
			if peer := e.Lookup(d.ID); peer == nil {
				t.Fatalf("slot %d has contact for unknown node %d", slot, d.ID)
			}
		}
	}
}

func TestUO2ContactLookup(t *testing.T) {
	e, _, u := buildUO2(t, 2, 200, 4)
	if _, err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	slot := e.AliveSlots()[0]
	self := e.Node(slot)
	for c := view.ComponentID(0); c < 4; c++ {
		d, ok := u.Contact(slot, c)
		if c == self.Profile.Comp {
			if ok {
				t.Fatal("own component must have no entry")
			}
			continue
		}
		if !ok {
			t.Fatalf("missing contact for component %d", c)
		}
		if d.Profile.Comp != c {
			t.Fatalf("contact filed under %d belongs to %d", c, d.Profile.Comp)
		}
	}
}

func TestUO2DeadContactsExpire(t *testing.T) {
	e, _, u := buildUO2(t, 3, 200, 4)
	if _, err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	// Kill every member of component 0; all contacts into it must decay
	// within uo2MaxAge (+ a small spread margin).
	for _, slot := range e.AliveSlots() {
		if e.Node(slot).Profile.Comp == 0 {
			e.Kill(slot)
		}
	}
	if _, err := e.Run(uo2MaxAge + 15); err != nil {
		t.Fatal(err)
	}
	for _, slot := range e.AliveSlots() {
		if _, ok := u.Contact(slot, 0); ok {
			t.Fatalf("slot %d still has a contact in the dead component", slot)
		}
	}
}

func TestUO2StaleEpochPurged(t *testing.T) {
	e, alloc, u := buildUO2(t, 4, 200, 4)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Reconfigure(e, ringsTopo(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	epoch := alloc.Epoch()
	for _, slot := range e.AliveSlots() {
		for _, row := range u.states[slot].entries {
			if d := row.d; row.valid() && d.Profile.Epoch != epoch {
				t.Fatalf("slot %d keeps epoch-%d contact after reconfiguration", slot, d.Profile.Epoch)
			}
		}
	}
	// Coverage rebuilds for the new component set.
	covered := 0
	for _, slot := range e.AliveSlots() {
		if u.Coverage(slot) == 4 {
			covered++
		}
	}
	if frac := float64(covered) / float64(e.AliveCount()); frac < 0.95 {
		t.Fatalf("only %.2f of nodes re-covered all components", frac)
	}
}

func TestUO2BandwidthMetered(t *testing.T) {
	e, _, _ := buildUO2(t, 5, 100, 3)
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	m := e.Meter()
	uo2Idx := -1
	for i, name := range m.Names() {
		if name == "uo2" {
			uo2Idx = i
		}
	}
	if uo2Idx < 0 {
		t.Fatal("uo2 not metered")
	}
	for r := 0; r < 5; r++ {
		if m.RoundTotal(r, uo2Idx) <= 0 {
			t.Fatalf("round %d: no uo2 bandwidth", r)
		}
	}
}
