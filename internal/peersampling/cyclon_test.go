package peersampling

import (
	"testing"
	"unsafe"

	"sosf/internal/graph"
	"sosf/internal/sim"
	"sosf/internal/view"
)

// TestCyclonPlanSizeof pins a plan record at the bootstrap contact, the
// partner, the two payload lengths and the kind: the payloads live in the
// engine's plan region, so a slice header here is a regression.
func TestCyclonPlanSizeof(t *testing.T) {
	if got := unsafe.Sizeof(cyclonPlan{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(cyclonPlan{}) = %d, want 56", got)
	}
}

func buildNetwork(t *testing.T, seed int64, n int) (*sim.Engine, *Protocol) {
	t.Helper()
	e := sim.New(seed)
	p := New()
	e.Register(p)
	for _, s := range e.AddNodes(n) {
		e.InitNode(s)
	}
	return e, p
}

// overlayConnected reports whether the undirected graph of the views
// spans every slot in one piece.
func overlayConnected(e *sim.Engine, p *Protocol) bool {
	g := graph.New(e.Size())
	all := make([]int, e.Size())
	for slot := range all {
		all[slot] = slot
		if !e.Node(slot).Alive {
			continue
		}
		for _, id := range p.View(slot).IDs() {
			if peer := e.Lookup(id); peer != nil {
				g.AddEdge(slot, peer.Slot)
			}
		}
	}
	return g.ConnectedOver(all)
}

func TestViewsFillAndStayBounded(t *testing.T) {
	e, p := buildNetwork(t, 1, 200)
	if _, err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < e.Size(); slot++ {
		v := p.View(slot)
		if v.Len() > viewSize {
			t.Fatalf("slot %d view size %d exceeds capacity", slot, v.Len())
		}
		if v.Len() < viewSize*3/4 {
			t.Fatalf("slot %d view only has %d entries after 30 rounds", slot, v.Len())
		}
		if v.Contains(e.Node(slot).ID) {
			t.Fatalf("slot %d contains itself", slot)
		}
	}
}

func TestOverlayStaysConnected(t *testing.T) {
	e, p := buildNetwork(t, 2, 300)
	if _, err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	if !overlayConnected(e, p) {
		t.Fatal("peer-sampling overlay should be connected after 40 rounds")
	}
}

func TestInDegreeBalanced(t *testing.T) {
	e, p := buildNetwork(t, 3, 400)
	if _, err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	indeg := make([]int, e.Size())
	for slot := 0; slot < e.Size(); slot++ {
		for _, id := range p.View(slot).IDs() {
			indeg[e.Lookup(id).Slot]++
		}
	}
	max, zero := 0, 0
	for _, d := range indeg {
		if d > max {
			max = d
		}
		if d == 0 {
			zero++
		}
	}
	// A healthy Cyclon network concentrates in-degrees around viewSize;
	// (almost) nobody should be orphaned, nobody should be a hotspot. The
	// bulk-synchronous rounds plan every exchange against the round-start
	// views, so two shuffles landing on one partner occasionally hand out
	// overlapping samples whose duplicates merge away — a transient
	// in-degree-0 tail of well under 1% that self-heals within a few
	// rounds (the node's own shuffle re-advertises it every round).
	if zero > len(indeg)/100 {
		t.Fatalf("%d of %d nodes have in-degree 0 (allowed: <= 1%%)", zero, len(indeg))
	}
	if max > viewSize*5 {
		t.Fatalf("in-degree hotspot: max %d, view size %d", max, viewSize)
	}
}

func TestChurnPurgesDeadNodes(t *testing.T) {
	e, p := buildNetwork(t, 4, 200)
	if _, err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	killed := e.KillFraction(0.2)
	dead := map[view.NodeID]bool{}
	for _, s := range killed {
		dead[e.Node(s).ID] = true
	}
	if _, err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	stale, total := 0, 0
	for slot := 0; slot < e.Size(); slot++ {
		if !e.Node(slot).Alive {
			continue
		}
		for _, id := range p.View(slot).IDs() {
			total++
			if dead[id] {
				stale++
			}
		}
	}
	if total == 0 {
		t.Fatal("no view entries at all")
	}
	if frac := float64(stale) / float64(total); frac > 0.05 {
		t.Fatalf("%.1f%% of view entries point to dead nodes after 40 rounds", frac*100)
	}
}

func TestRejoinAfterIsolation(t *testing.T) {
	e, p := buildNetwork(t, 5, 50)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// Forcefully isolate node 0.
	for v := p.View(0); v.Len() > 0; {
		v.RemoveAt(0)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if p.View(0).Len() == 0 {
		t.Fatal("isolated node failed to re-bootstrap")
	}
}

func TestSelfDescriptorsPropagateFreshProfiles(t *testing.T) {
	e, p := buildNetwork(t, 6, 100)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// Change node 0's profile (as a reconfiguration would) and check the
	// new epoch wins over stale copies in other views.
	n := e.Node(0)
	n.Profile.Epoch = 7
	if _, err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	seen, fresh := 0, 0
	for slot := 1; slot < e.Size(); slot++ {
		v := p.View(slot)
		if i := v.IndexOf(n.ID); i >= 0 {
			seen++
			if v.At(i).Profile.Epoch == 7 {
				fresh++
			}
		}
	}
	if seen == 0 {
		t.Fatal("node 0 should appear in some views")
	}
	if fresh*2 < seen {
		t.Fatalf("only %d/%d copies carry the new epoch", fresh, seen)
	}
}

func TestBandwidthMetered(t *testing.T) {
	e, p := buildNetwork(t, 7, 100)
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	m := e.Meter()
	if m.Rounds() != 5 {
		t.Fatalf("meter rounds = %d, want 5", m.Rounds())
	}
	// Every exchange is at most (header + gossip descriptors) twice.
	perRound := sim.DescriptorPayload(gossip) * 2 * 100
	for r := 0; r < 5; r++ {
		got := m.RoundTotal(r, 0)
		if got <= 0 || got > int64(perRound) {
			t.Fatalf("round %d bandwidth %d outside (0, %d]", r, got, perRound)
		}
	}
	_ = p
}

func TestMessageLossDoesNotBreakOverlay(t *testing.T) {
	e, p := buildNetwork(t, 8, 200)
	e.SetLossRate(0.3)
	if _, err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for slot := 0; slot < e.Size(); slot++ {
		if p.View(slot).Len() == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d nodes isolated under 30%% loss", empty)
	}
	if !overlayConnected(e, p) {
		t.Fatal("overlay should survive 30% message loss")
	}
}
