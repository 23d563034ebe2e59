package sim

import (
	"math"
	"testing"

	"sosf/internal/snap"
	"sosf/internal/view"
)

func TestStreamDeterministicPerKey(t *testing.T) {
	a := NewStream(1, 42, 7, 3)
	b := NewStream(1, 42, 7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same key diverged at draw %d", i)
		}
	}
}

func TestStreamKeysIndependent(t *testing.T) {
	base := NewStream(1, 42, 7, 3)
	first := base.Uint64()
	// Perturbing any single key component must change the stream — node,
	// round, salt (protocol × phase), and seed all separate.
	for name, s := range map[string]Stream{
		"node":  NewStream(1, 43, 7, 3),
		"round": NewStream(1, 42, 8, 3),
		"salt":  NewStream(1, 42, 7, 4),
		"seed":  NewStream(2, 42, 7, 3),
	} {
		if s.Uint64() == first {
			t.Fatalf("%s perturbation left the first draw unchanged", name)
		}
	}
}

func TestStreamIntnBoundsAndPanic(t *testing.T) {
	s := NewStream(9, 0, 0, 0)
	for _, n := range []int{1, 2, 3, 7, 8, 1000} {
		for i := 0; i < 200; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(5, 1, 2, 3)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0, 1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestStreamIntnRoughlyUniform(t *testing.T) {
	s := NewStream(11, 3, 1, 0)
	const buckets, draws = 10, 50000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestStreamShuffleIsPermutation(t *testing.T) {
	s := NewStream(13, 2, 9, 1)
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	moved := 0
	for i, x := range xs {
		if seen[x] {
			t.Fatalf("value %d duplicated", x)
		}
		seen[x] = true
		if x != i {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("shuffle left the identity permutation (vanishingly unlikely)")
	}
}

func TestStreamSatisfiesViewRand(t *testing.T) {
	// The view package samples through this interface; a compile-time
	// assertion exists in stream.go, this pins the runtime behavior.
	s := NewStream(1, 2, 3, 4)
	var r view.Rand = &s
	if v := r.Intn(4); v < 0 || v >= 4 {
		t.Fatalf("Intn via interface out of range: %d", v)
	}
}

func TestInboxOrderAndReset(t *testing.T) {
	const size = 6
	var b inbox
	b.grow(size)
	nodes := make([]Node, size)
	alive := make([]int, 0, size)
	for slot := 0; slot < size; slot++ {
		nodes[slot] = Node{Slot: slot, Alive: true}
		alive = append(alive, slot)
		b.reset(slot)
	}
	// Senders write their planned lanes; the lists materialize in the
	// merge, which scans senders in ascending slot order.
	b.planned[5] = 3
	b.planned[0] = 3
	b.planned[2] = 3
	b.planned[4] = 1
	// Merge in two target shards to prove sharding is invisible: the
	// per-target order must still be global ascending sender order.
	b.merge(nodes, alive, 0, 3)
	b.merge(nodes, alive, 3, size)
	var got []int
	for s := b.head[3]; s >= 0; s = b.next[s] {
		got = append(got, int(s))
	}
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("inbox(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inbox(3) = %v, want %v", got, want)
		}
	}
	if b.head[1] != 4 || b.next[4] != -1 {
		t.Fatal("inbox(1) should hold exactly sender 4")
	}
	if b.head[0] != -1 {
		t.Fatal("untouched slot should be empty")
	}
	b.reset(3)
	if b.head[3] != -1 || b.planned[3] != -1 {
		t.Fatal("reset slot should be empty and route nothing")
	}
}

func TestInboxMergeSkipsDeadAndRerouted(t *testing.T) {
	var b inbox
	b.grow(4)
	nodes := make([]Node, 4)
	for slot := range nodes {
		nodes[slot] = Node{Slot: slot, Alive: true}
		b.reset(slot)
	}
	b.planned[0] = 2
	b.planned[1] = 2
	b.planned[1] = 0 // re-route: only the last planned target counts
	nodes[0].Alive = false
	// Sender 0 died between Plan and Deliver: its exchange is dropped.
	b.merge(nodes, []int{0, 1, 2, 3}, 0, 4)
	if b.head[2] != -1 {
		t.Fatalf("inbox(2) should be empty, got sender %d", b.head[2])
	}
	if b.head[0] != 1 || b.next[1] != -1 {
		t.Fatal("inbox(0) should hold exactly sender 1")
	}
}

// TestEngineWorkerCountInvariant pins the invariant at the engine level
// with a protocol that uses every phase facility: per-slot plans drawn
// from ctx.Rand, engine routing, metering, and absorb-time merging. The
// meter history (which hashes the whole exchange pattern) must match
// across worker counts.
type probeProtocol struct {
	noSnapshot
	picks []int // per-slot planned target
	sums  []uint64
}

func (p *probeProtocol) Name() string { return "probe" }

func (p *probeProtocol) Resize(n int) {
	for len(p.picks) < n {
		p.picks = append(p.picks, -1)
		p.sums = append(p.sums, 0)
	}
	p.picks, p.sums = p.picks[:n], p.sums[:n]
}

func (p *probeProtocol) InitNode(e *Engine, slot int) {}

func (p *probeProtocol) Refresh(ctx *Ctx) {}

func (p *probeProtocol) Plan(ctx *Ctx) {
	slot := ctx.Slot()
	p.picks[slot] = -1
	if n := ctx.RandomAlive(slot); n != nil && ctx.Deliver(n.Slot) {
		p.picks[slot] = n.Slot
		ctx.Count(slot + 1)
		ctx.Route(n.Slot)
	}
}

// PlanWidth, EncodePlan and DecodePlan make the probe a routing protocol;
// the route lane is its whole plan, and the frame carries that.
func (p *probeProtocol) PlanWidth() int                                                { return 0 }
func (p *probeProtocol) EncodePlan(w *snap.Writer, slot int, region []view.Descriptor) {}
func (p *probeProtocol) DecodePlan(r *snap.Reader, slot int, region []view.Descriptor) error {
	return nil
}

func (p *probeProtocol) Absorb(ctx *Ctx) {
	slot := ctx.Slot()
	for s := ctx.FirstSender(); s >= 0; s = ctx.NextSender(s) {
		// Order-sensitive fold: catches any deviation in inbox ordering.
		p.sums[slot] = p.sums[slot]*31 + uint64(s) + 1
	}
}

func TestEngineWorkerCountInvariant(t *testing.T) {
	trace := func(workers int) ([]int64, []uint64) {
		e := New(77)
		e.SetWorkers(workers)
		e.SetLossRate(0.2)
		p := &probeProtocol{}
		e.Register(p)
		for _, s := range e.AddNodes(500) {
			e.InitNode(s)
		}
		e.SetRoundEnd(func(e *Engine) bool {
			if e.Round() == 10 {
				e.Partition(3)
			}
			if e.Round() == 20 {
				e.Heal()
			}
			e.KillFraction(0.01)
			for _, s := range e.AddNodes(2) {
				e.InitNode(s)
			}
			return false
		})
		if _, err := e.Run(30); err != nil {
			t.Fatal(err)
		}
		var meter []int64
		for r := 0; r < e.Meter().Rounds(); r++ {
			meter = append(meter, e.Meter().RoundSum(r))
		}
		return meter, append([]uint64(nil), p.sums...)
	}
	baseMeter, baseSums := trace(1)
	for _, w := range []int{2, 4, 8} {
		meter, sums := trace(w)
		for r := range baseMeter {
			if meter[r] != baseMeter[r] {
				t.Fatalf("workers=%d: meter diverges at round %d: %d vs %d", w, r, meter[r], baseMeter[r])
			}
		}
		for s := range baseSums {
			if sums[s] != baseSums[s] {
				t.Fatalf("workers=%d: absorb fold diverges at slot %d", w, s)
			}
		}
	}
}
