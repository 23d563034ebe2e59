package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sosf/internal/snap"
	"sosf/internal/view"
)

// TestCountedSourceReplay is the foundation of serial-RNG restore: after an
// arbitrary mix of draws, a fresh source fast-forwarded by the recorded
// count must continue with exactly the same values.
func TestCountedSourceReplay(t *testing.T) {
	src := newCountedSource(12345)
	rng := rand.New(src)
	// A deliberately mixed diet: every entry point the engine uses between
	// rounds (Shuffle and Intn reject-sample, so the draw count is not
	// simply the call count — exactly what the counter must absorb).
	for i := 0; i < 1000; i++ {
		rng.Uint64()
		rng.Intn(7)
		rng.Float64()
		rng.Shuffle(13, func(a, b int) {})
		rng.Int63n(1<<62 + 3)
	}

	replaySrc := newCountedSource(12345)
	replaySrc.skip(src.n)
	replay := rand.New(replaySrc)
	for i := 0; i < 100; i++ {
		if a, b := rng.Uint64(), replay.Uint64(); a != b {
			t.Fatalf("draw %d diverged after replay: %d != %d", i, a, b)
		}
	}
}

// snapshotState checkpoints e's engine body into memory.
func snapshotState(e *Engine) ([]byte, error) {
	var w snap.Writer
	if err := e.SnapshotState(&w); err != nil {
		return nil, err
	}
	return w.Encoded(), nil
}

// restoreState restores e from an engine body written by SnapshotState.
func restoreState(e *Engine, body []byte) error {
	return e.RestoreState(snap.NewBytesReader(body))
}

// snapProbe is a minimal routing protocol with per-slot state and random
// draws in every phase, to exercise engine snapshot/restore without the
// full stack.
type snapProbe struct {
	marks []uint64
}

func (p *snapProbe) Name() string { return "probe" }
func (p *snapProbe) Resize(n int) {
	for len(p.marks) < n {
		p.marks = append(p.marks, 0)
	}
	p.marks = p.marks[:n]
}
func (p *snapProbe) InitNode(e *Engine, slot int) {}
func (p *snapProbe) Refresh(ctx *Ctx)             {}
func (p *snapProbe) Plan(ctx *Ctx) {
	p.marks[ctx.Slot()] = p.marks[ctx.Slot()]*31 + ctx.Rand().Uint64()
}
func (p *snapProbe) Absorb(ctx *Ctx)                                               {}
func (p *snapProbe) PlanWidth() int                                                { return 0 }
func (p *snapProbe) EncodePlan(w *snap.Writer, slot int, region []view.Descriptor) {}
func (p *snapProbe) DecodePlan(r *snap.Reader, slot int, region []view.Descriptor) error {
	return nil
}

func (p *snapProbe) SnapshotSlot(w *snap.Writer, slot int) { w.U64(p.marks[slot]) }

func (p *snapProbe) RestoreSlot(r *snap.Reader, slot int) error {
	p.marks[slot] = r.U64()
	return nil
}

func buildProbeEngine(t *testing.T, seed int64) (*Engine, *snapProbe) {
	t.Helper()
	e := New(seed)
	probe := &snapProbe{}
	e.Register(probe)
	for _, slot := range e.AddNodes(64) {
		e.Node(slot).Profile.Key = e.Rand().Uint64()
		e.InitNode(slot)
	}
	return e, probe
}

// runChaos drives rounds with inter-round churn, partitions and loss — all
// the serial-RNG consumers — so restore must reproduce every dimension.
func runChaos(t *testing.T, e *Engine, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		e.RunRound()
		switch e.Round() % 7 {
		case 2:
			e.KillFraction(0.05)
		case 3:
			for _, slot := range e.AddNodes(2) {
				e.Node(slot).Profile.Key = e.Rand().Uint64()
				e.InitNode(slot)
			}
		case 4:
			e.Partition(2)
		case 5:
			e.Heal()
			e.SetLossRate(0.1)
		case 6:
			e.SetLossRate(0)
		}
	}
}

func TestEngineSnapshotRestoreEquivalence(t *testing.T) {
	// Uninterrupted reference: 20 + 15 chaotic rounds.
	ref, refProbe := buildProbeEngine(t, 99)
	runChaos(t, ref, 20)

	snapBytes, err := snapshotState(ref)
	if err != nil {
		t.Fatal(err)
	}
	runChaos(t, ref, 15)

	// Restored run: a *differently seeded* fresh engine (restore must
	// replace everything, including the seed) continuing the same 15.
	cont, contProbe := buildProbeEngine(t, 7)
	runChaos(t, cont, 3) // arbitrary pre-restore state, wiped by Restore
	if err := restoreState(cont, snapBytes); err != nil {
		t.Fatal(err)
	}
	if cont.Round() != 20 {
		t.Fatalf("restored round = %d, want 20", cont.Round())
	}
	runChaos(t, cont, 15)

	if ref.Round() != cont.Round() || ref.Size() != cont.Size() {
		t.Fatalf("round/size: ref %d/%d, cont %d/%d", ref.Round(), ref.Size(), cont.Round(), cont.Size())
	}
	if ref.AliveCount() != cont.AliveCount() {
		t.Fatalf("alive: ref %d, cont %d", ref.AliveCount(), cont.AliveCount())
	}
	for slot := 0; slot < ref.Size(); slot++ {
		a, b := ref.Node(slot), cont.Node(slot)
		if a.ID != b.ID || a.Alive != b.Alive || a.Joined != b.Joined || a.Profile != b.Profile {
			t.Fatalf("node %d: ref %+v, cont %+v", slot, a, b)
		}
	}
	if len(refProbe.marks) != len(contProbe.marks) {
		t.Fatalf("mark counts differ: %d vs %d", len(refProbe.marks), len(contProbe.marks))
	}
	for i := range refProbe.marks {
		if refProbe.marks[i] != contProbe.marks[i] {
			t.Fatalf("mark %d: ref %d, cont %d", i, refProbe.marks[i], contProbe.marks[i])
		}
	}
	// The serial RNGs must be in the same position too.
	if a, b := ref.Rand().Uint64(), cont.Rand().Uint64(); a != b {
		t.Fatalf("serial RNG diverged after resume: %d != %d", a, b)
	}
}

// noSnapshot gives test probes that keep no inter-round state Protocol's
// checkpoint hook, as no-ops.
type noSnapshot struct{}

func (noSnapshot) SnapshotSlot(*snap.Writer, int)      {}
func (noSnapshot) RestoreSlot(*snap.Reader, int) error { return nil }

// TestRestoreRejectsAbsurdDrawCount: a corrupted draw count must produce
// an error, not an effectively infinite fast-forward loop.
func TestRestoreRejectsAbsurdDrawCount(t *testing.T) {
	// Hand-build a stream whose fixed prefix is self-consistent (an empty
	// population) but whose draw count is far past the replay bound.
	var w snap.Writer
	w.I64(1)           // seed
	w.Uvarint(1 << 50) // draws: absurd
	w.Int(1)           // round
	w.Varint(0)        // nextID
	w.F64(0)           // loss rate
	w.Len(0)           // node count

	e := New(1)
	e.Register(&snapProbe{})
	err := restoreState(e, w.Encoded())
	if err == nil || !strings.Contains(err.Error(), "replay bound") {
		t.Fatalf("err = %v, want draw-count bound rejection", err)
	}
}

// TestRestoreAllocatesOnlyWhatArrives feeds Restore engine bodies that
// declare a million nodes, partition groups or meter rows and then end:
// each must fail as corrupt after allocating a small constant, not memory
// for the declared count.
func TestRestoreAllocatesOnlyWhatArrives(t *testing.T) {
	const huge = 1 << 20
	prefix := func(w *snap.Writer, nodes int) {
		w.I64(1)               // seed
		w.Uvarint(0)           // draws
		w.Int(1)               // round
		w.Varint(int64(nodes)) // nextID
		w.F64(0)               // loss rate
		w.Len(nodes)           // node count
	}
	cases := []struct {
		name  string
		write func(w *snap.Writer)
	}{
		{"nodes", func(w *snap.Writer) { prefix(w, huge) }},
		{"partition", func(w *snap.Writer) {
			prefix(w, 0)
			w.Bool(true)
			w.Len(huge)
		}},
		{"meter rows", func(w *snap.Writer) {
			prefix(w, 0)
			w.Bool(false) // no partition
			w.Len(1)
			w.String("probe")
			w.Varint(0) // in-flight count
			w.Len(huge)
		}},
	}
	for _, tc := range cases {
		var w snap.Writer
		tc.write(&w)
		e := New(1)
		e.Register(&snapProbe{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := restoreState(e, w.Encoded())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		const bound = 64 << 10
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Fatalf("%s: a %d-byte body declaring %d records allocated %d bytes, want <= %d",
				tc.name, len(w.Encoded()), huge, grew, bound)
		}
	}
}

// TestRestoreRejectsMismatchedStack: a snapshot taken under one protocol
// stack must not restore into another.
func TestRestoreRejectsMismatchedStack(t *testing.T) {
	e, _ := buildProbeEngine(t, 1)
	runChaos(t, e, 5)
	body, err := snapshotState(e)
	if err != nil {
		t.Fatal(err)
	}

	other := New(1)
	other.Register(&snapProbe{})
	other.Register(&snapProbe{})
	if err := restoreState(other, body); err == nil {
		t.Fatal("restore into a two-protocol engine succeeded")
	}
}

// TestMeterSnapshotRoundTrip: bandwidth history must survive a checkpoint
// so resumed runs report the same per-round and whole-run figures.
func TestMeterSnapshotRoundTrip(t *testing.T) {
	m := NewMeter()
	m.AddProtocol("a")
	m.AddProtocol("b")
	for r := 0; r < 10; r++ {
		m.current[0] += int64(r*3 + 1)
		m.current[1] += int64(r*5 + 2)
		m.EndRound()
	}

	var w snap.Writer
	m.snapshot(&w)

	n := NewMeter()
	n.AddProtocol("a")
	n.AddProtocol("b")
	r := snap.NewReader(bytes.NewReader(w.Encoded()))
	if err := n.restore(r); err != nil {
		t.Fatal(err)
	}
	if n.Rounds() != m.Rounds() {
		t.Fatalf("rounds = %d, want %d", n.Rounds(), m.Rounds())
	}
	for round := 0; round < m.Rounds(); round++ {
		for p := 0; p < 2; p++ {
			if n.RoundTotal(round, p) != m.RoundTotal(round, p) {
				t.Fatalf("round %d protocol %d: %d != %d", round, p, n.RoundTotal(round, p), m.RoundTotal(round, p))
			}
		}
	}
}

// TestRestoreRejectsBodyLengthMismatch restores a checkpoint whose one
// protocol body declares a byte more and a byte less than its slots take:
// both must fail as corrupt, since the slots are decoded in place from the
// stream and only the declared length delimits them.
func TestRestoreRejectsBodyLengthMismatch(t *testing.T) {
	e, _ := buildProbeEngine(t, 1)
	runChaos(t, e, 5)
	state, err := snapshotState(e)
	if err != nil {
		t.Fatal(err)
	}
	// The probe's body closes the stream: a slot count, then one U64 a
	// slot, behind its length prefix.
	var count snap.Writer
	count.Len(e.Size())
	size := len(count.Encoded()) + 8*e.Size()
	var prefix snap.Writer
	prefix.Len(size)
	head := state[:len(state)-size-len(prefix.Encoded())]
	body := state[len(state)-size:]
	for _, tc := range []struct {
		name string
		size int
		body []byte
	}{
		{"a trailing byte", size + 1, append(bytes.Clone(body), 0)},
		{"a byte short", size - 1, body},
	} {
		var w snap.Writer
		w.Reset(bytes.Clone(head))
		w.Len(tc.size)
		other := New(1)
		other.Register(&snapProbe{})
		err := restoreState(other, append(w.Encoded(), tc.body...))
		if !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "body") {
			t.Fatalf("%s: err = %v, want ErrCorrupt naming the body", tc.name, err)
		}
	}
	if err := restoreState(e, state); err != nil {
		t.Fatalf("the unedited checkpoint: %v", err)
	}
}
