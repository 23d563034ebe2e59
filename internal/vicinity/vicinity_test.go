package vicinity

import (
	"testing"
	"unsafe"

	"sosf/internal/peersampling"
	"sosf/internal/sim"
	"sosf/internal/view"
)

// TestVicinityPlanSizeof pins a plan record at the partner, the two
// payload lengths and the kind: the payloads live in the engine's plan
// region, so a slice header here is a regression.
func TestVicinityPlanSizeof(t *testing.T) {
	if got := unsafe.Sizeof(vicinityPlan{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(vicinityPlan{}) = %d, want 24", got)
	}
}

// ringRanker ranks by cyclic distance between dense indices — a minimal
// stand-in for the shapes package.
type ringRanker struct{ capacity int }

func (r ringRanker) Rank(owner view.Profile, pool []view.Descriptor, maxAge int, keys []view.RankKey) []view.RankKey {
	for i, d := range pool {
		if int(d.Age) > maxAge {
			continue
		}
		if rank := ringDist(owner, d.Profile); rank < view.RankInf {
			keys = append(keys, view.RankKey{Rank: rank, ID: d.ID, Age: d.Age, Idx: int32(i)})
		}
	}
	return keys
}

func (r ringRanker) Capacity(view.Profile) int { return r.capacity }

// ringDist is ringRanker's per-pair rank: the cyclic distance between the
// two indices, or view.RankInf across epochs.
func ringDist(owner, cand view.Profile) float64 {
	if cand.Epoch != owner.Epoch {
		return view.RankInf
	}
	n := int32(owner.Size)
	d := owner.Index - cand.Index
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return float64(d)
}

func buildRing(t *testing.T, seed int64, n int, opts Options) (*sim.Engine, *Protocol) {
	t.Helper()
	e := sim.New(seed)
	rps := peersampling.New()
	e.Register(rps)
	p := New("ring", ringRanker{capacity: 6}, rps, opts)
	e.Register(p)
	slots := e.AddNodes(n)
	for i, s := range slots {
		node := e.Node(s)
		node.Profile = view.Profile{Index: int32(i), Size: int32(n), Key: uint64(i)}
		e.InitNode(s)
	}
	return e, p
}

// ringConverged reports the fraction of alive nodes whose view contains
// both cyclic neighbors.
func ringConverged(e *sim.Engine, p *Protocol, n int) float64 {
	ok := 0
	for slot := 0; slot < n; slot++ {
		node := e.Node(slot)
		if !node.Alive {
			continue
		}
		i := int(node.Profile.Index)
		left := e.Node((slot + n - 1) % n).ID
		right := e.Node((slot + 1) % n).ID
		_ = i
		v := p.View(slot)
		if v.Contains(left) && v.Contains(right) {
			ok++
		}
	}
	return float64(ok) / float64(e.AliveCount())
}

func TestRingConverges(t *testing.T) {
	n := 128
	e, p := buildRing(t, 1, n, Options{})
	if _, err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	if frac := ringConverged(e, p, n); frac < 1.0 {
		t.Fatalf("ring only %.2f converged after 30 rounds", frac)
	}
}

func TestRingConvergesWithoutRandomFeedSlower(t *testing.T) {
	n := 64
	roundsTo := func(opts Options, seed int64) int {
		e, p := buildRing(t, seed, n, opts)
		for r := 1; r <= 120; r++ {
			if _, err := e.Run(1); err != nil {
				t.Fatal(err)
			}
			if ringConverged(e, p, n) >= 1.0 {
				return r
			}
		}
		return 121
	}
	with := roundsTo(Options{}, 3)
	if with > 40 {
		t.Fatalf("with random feed the ring should converge fast, took %d", with)
	}
	// Pure greedy T-Man still works on a ring gradient (it is a perfectly
	// smooth metric) but must not be *faster* than the randomized variant
	// on average; mostly this exercises the NoRandomFeed code path.
	without := roundsTo(Options{NoRandomFeed: true}, 3)
	if without == 121 {
		t.Log("pure-greedy run did not converge within 120 rounds (acceptable: local minima)")
	}
}

func TestViewsRespectCapacityAndRanking(t *testing.T) {
	n := 96
	e, p := buildRing(t, 2, n, Options{})
	if _, err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < n; slot++ {
		v := p.View(slot)
		if v.Len() > 6 {
			t.Fatalf("slot %d view %d exceeds capacity 6", slot, v.Len())
		}
		owner := e.Node(slot).Profile
		for _, d := range v.AppendEntries(nil) {
			if ringDist(owner, d.Profile) == view.RankInf {
				t.Fatalf("slot %d kept an unrankable entry", slot)
			}
			if d.ID == e.Node(slot).ID {
				t.Fatalf("slot %d kept itself", slot)
			}
		}
	}
}

func TestChurnRecovery(t *testing.T) {
	n := 128
	e, p := buildRing(t, 3, n, Options{})
	if _, err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	if frac := ringConverged(e, p, n); frac < 1.0 {
		t.Fatalf("precondition: ring converged, got %.2f", frac)
	}
	// Kill 10% of nodes; survivors should drop dead entries within MaxAge.
	e.KillFraction(0.1)
	if _, err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for slot := 0; slot < n; slot++ {
		if !e.Node(slot).Alive {
			continue
		}
		for _, id := range p.View(slot).IDs() {
			if peer := e.Lookup(id); peer == nil || !peer.Alive {
				stale++
			}
		}
	}
	if stale > 0 {
		t.Fatalf("%d dead entries still in overlay views after 30 rounds", stale)
	}
}

func TestStaleEpochEvicted(t *testing.T) {
	n := 64
	e, p := buildRing(t, 4, n, Options{})
	if _, err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	// Reconfiguration: everyone moves to epoch 1 with the same indices.
	for slot := 0; slot < n; slot++ {
		e.Node(slot).Profile.Epoch = 1
	}
	if _, err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < n; slot++ {
		for _, d := range p.View(slot).AppendEntries(nil) {
			if d.Profile.Epoch != 1 {
				t.Fatalf("slot %d still holds epoch-%d entry", slot, d.Profile.Epoch)
			}
		}
	}
	if frac := ringConverged(e, p, n); frac < 1.0 {
		t.Fatalf("ring should re-converge after epoch bump, got %.2f", frac)
	}
}

func TestCapacityDifferentiation(t *testing.T) {
	// Capacity is re-read from the ranker every step, so profile changes
	// (role differentiation) take effect.
	e := sim.New(5)
	rps := peersampling.New()
	e.Register(rps)
	p := New("x", ringRanker{capacity: 3}, rps, Options{})
	e.Register(p)
	slots := e.AddNodes(10)
	for i, s := range slots {
		e.Node(s).Profile = view.Profile{Index: int32(i), Size: 10}
		e.InitNode(s)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, s := range slots {
		if p.View(s).Cap() != 3 {
			t.Fatalf("capacity = %d, want 3", p.View(s).Cap())
		}
	}
}

func TestBandwidthAccounted(t *testing.T) {
	n := 50
	e, _ := buildRing(t, 6, n, Options{Gossip: 4})
	if _, err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	m := e.Meter()
	names := m.Names()
	if len(names) != 2 || names[1] != "ring" {
		t.Fatalf("meter names = %v", names)
	}
	for r := 0; r < 3; r++ {
		if m.RoundTotal(r, 1) <= 0 {
			t.Fatalf("round %d: overlay reported no bandwidth", r)
		}
	}
}
