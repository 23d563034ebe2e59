package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sosf/internal/core"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/spec"
	"sosf/internal/view"
)

// codecCase is one sharded protocol of a built system: its protocol
// index, the plan-record frame of every alive slot captured at the
// protocol's Deliver barrier, and the route lane each of those slots'
// Plan set.
type codecCase struct {
	name  string
	pi    int
	slots []int
	frame []byte
	lanes []int
}

// planSystem builds a 64-node ring of four rings, runs two rounds, and
// captures every codec's frame during a third, sharded round whose one
// shard is the whole alive population.
func planSystem(tb testing.TB) (*sim.Engine, []codecCase) { return planSystemOf(tb, 64) }

// planSystemOf is planSystem over the given number of nodes.
func planSystemOf(tb testing.TB, nodes int) (*sim.Engine, []codecCase) {
	tb.Helper()
	const rings = 4
	topo := &spec.Topology{Name: "ring-of-rings"}
	for i := 0; i < rings; i++ {
		topo.Components = append(topo.Components, spec.Component{
			Name: fmt.Sprintf("r%d", i), Shape: "ring", Weight: 1,
			Ports: []string{"head", "tail"},
		})
		topo.Links = append(topo.Links, spec.Link{
			A: spec.PortRef{Component: fmt.Sprintf("r%d", i), Port: "head"},
			B: spec.PortRef{Component: fmt.Sprintf("r%d", (i+1)%rings), Port: "tail"},
		})
	}
	sys, err := core.NewSystem(core.Config{Topology: topo, Nodes: nodes, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	e := sys.Engine()
	if _, err := e.Run(2); err != nil {
		tb.Fatal(err)
	}
	var cases []codecCase
	_, err = e.RunRoundSharded(0, e.Size(), func(pi int, codec sim.PlanCodec, shard []int) error {
		c := codecCase{
			name:  codec.(sim.Protocol).Name(),
			pi:    pi,
			slots: append([]int(nil), shard...),
			frame: encodePlans(e, pi, shard),
		}
		for _, s := range shard {
			c.lanes = append(c.lanes, sim.PlannedLane(e, pi, s))
		}
		cases = append(cases, c)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(cases) == 0 {
		tb.Fatal("the runtime stack has no plan codec")
	}
	return e, cases
}

func encodePlans(e *sim.Engine, pi int, slots []int) []byte {
	var w snap.Writer
	e.EncodePlans(pi, &w, slots)
	return w.Encoded()
}

func decode(e *sim.Engine, c codecCase, frame []byte) error {
	return e.DecodePlans(c.pi, snap.NewBytesReader(frame))
}

// record frames one record: a count of 1, the slot, the lane, then body
// verbatim.
func record(slot, lane int, body []byte) []byte {
	var w snap.Writer
	w.Len(1)
	w.Int(slot)
	w.Int(lane)
	return append(w.Encoded(), body...)
}

// checkLanes fails if any lane of c's route table points outside the slot
// space.
func checkLanes(t *testing.T, e *sim.Engine, c codecCase) {
	t.Helper()
	for s := 0; s < e.Size(); s++ {
		if lane := sim.PlannedLane(e, c.pi, s); lane < -1 || lane >= e.Size() {
			t.Fatalf("%s: slot %d lane %d outside [-1,%d)", c.name, s, lane, e.Size())
		}
	}
}

// firstDelivered returns the index of the first captured slot whose Plan
// routed an exchange.
func firstDelivered(t *testing.T, c codecCase) int {
	t.Helper()
	for i, lane := range c.lanes {
		if lane >= 0 {
			return i
		}
	}
	t.Fatalf("%s: no slot delivered an exchange", c.name)
	return -1
}

// badBody returns a record body the codec named name must reject on its
// own, after the frame has accepted slot and lane: an unknown plan kind
// for the kind-tagged overlay codecs, a timeout flag that is no bool for
// UO2, and a record count past the reader's bound for PortSelect. It also
// returns what the error must say.
func badBody(name string) (body []byte, want string) {
	var w snap.Writer
	switch name {
	case "uo2":
		w.Reset([]byte{2})
		want = "invalid bool byte"
	case "portselect":
		w.Uvarint(1 << 40)
		want = "sanity bound"
	default:
		w.Int(1 << 20)
		want = "unknown plan kind"
	}
	return append(w.Encoded(), make([]byte, 8)...), want
}

// oversizeBody returns a record body the descriptor codec named name must
// reject because its first payload holds more descriptors than any plan
// region of the test system is wide — a delivered exchange for the
// kind-tagged overlay codecs (kind 3 for rps, 2 for uo1 and core), a
// published table for UO2 — or nil for PortSelect, whose records are not
// descriptors. It also returns what the error must say.
func oversizeBody(name string) (body []byte, want string) {
	var w snap.Writer
	switch name {
	case "portselect":
		return nil, ""
	case "uo2":
		w.Bool(false)
	case "rps":
		w.Int(3)
		w.Varint(7)
	default:
		w.Int(2)
		w.Varint(7)
	}
	snap.WriteDescriptors(&w, make([]view.Descriptor, 64))
	return w.Encoded(), "descriptor window"
}

// uo2Timeout turns the UO2 record body good (a swap that did not time
// out) into a timed-out one: the flag set, the same published table, and
// the suspected partner after it.
func uo2Timeout(good []byte) []byte {
	var w snap.Writer
	w.Reset(append([]byte{1}, good[1:]...))
	snap.WriteDescriptor(&w, view.Descriptor{ID: 7, Profile: view.Profile{Comp: 1}})
	return w.Encoded()
}

// TestPlanFrameRoundTrip decodes every codec's captured frame into a
// replica whose plans and lanes have moved on a round, and requires the
// frame to re-encode byte for byte and every lane to match the one the
// slot's own Plan routed.
func TestPlanFrameRoundTrip(t *testing.T) {
	e, cases := planSystem(t)
	e.RunRound()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			firstDelivered(t, c)
			if bytes.Equal(encodePlans(e, c.pi, c.slots), c.frame) {
				t.Fatal("a round later the plans still encode the captured frame; the round trip would prove nothing")
			}
			moved := 0
			for i, s := range c.slots {
				if sim.PlannedLane(e, c.pi, s) != c.lanes[i] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("a round later every lane still equals the captured one; the lane check would prove nothing")
			}
			if err := decode(e, c, c.frame); err != nil {
				t.Fatal(err)
			}
			if got := encodePlans(e, c.pi, c.slots); !bytes.Equal(got, c.frame) {
				t.Fatalf("re-encoded frame differs: %d bytes, captured %d", len(got), len(c.frame))
			}
			for i, s := range c.slots {
				if got := sim.PlannedLane(e, c.pi, s); got != c.lanes[i] {
					t.Fatalf("slot %d lane %d, its Plan routed %d", s, got, c.lanes[i])
				}
			}
		})
	}
}

// TestDecodePlansRejectsMalformed feeds every codec broken frames: each
// must fail with an error wrapping ErrBadPlan, without a panic and without
// setting a lane outside the slot space.
func TestDecodePlansRejectsMalformed(t *testing.T) {
	e, cases := planSystem(t)
	size := e.Size()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := decode(e, c, c.frame); err != nil {
				t.Fatal(err)
			}
			i := firstDelivered(t, c)
			slot, target := c.slots[i], c.lanes[i]
			good := encodePlans(e, c.pi, []int{slot})[len(record(slot, target, nil)):]
			body, want := badBody(c.name)
			type badFrame struct {
				name, want string
				frame      []byte
			}
			bad := []badFrame{
				{"slot -1", "out of range", record(-1, target, good)},
				{"slot = size", "out of range", record(size, target, good)},
				{"lane -2", "out of range", record(slot, -2, good)},
				{"lane = size", "out of range", record(slot, size, good)},
				{"bad body", want, record(slot, -1, body)},
			}
			if body, want := oversizeBody(c.name); body != nil {
				bad = append(bad, badFrame{"payload wider than the plan region", want, record(slot, target, body)})
			}
			three := encodePlans(e, c.pi, c.slots[:3])
			for cut := 0; cut < len(three); cut++ {
				bad = append(bad, badFrame{fmt.Sprintf("truncated at %d of %d", cut, len(three)), "", three[:cut]})
			}
			if c.name == "uo2" {
				timeout := record(slot, -1, uo2Timeout(good))
				if err := decode(e, c, timeout); err != nil {
					t.Fatalf("timed-out record: %v", err)
				}
				for cut := len(record(slot, -1, good)); cut < len(timeout); cut++ {
					bad = append(bad, badFrame{fmt.Sprintf("timed-out record cut at %d of %d", cut, len(timeout)), "", timeout[:cut]})
				}
			}
			for _, tc := range bad {
				err := decode(e, c, tc.frame)
				if !errors.Is(err, sim.ErrBadPlan) {
					t.Fatalf("%s: err = %v, want ErrBadPlan", tc.name, err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
				}
				checkLanes(t, e, c)
			}
		})
	}
}

// FuzzDecodePlans decodes arbitrary bytes as a plan-record frame of one
// of the system's codecs, seeded with real frames: an error must wrap
// ErrBadPlan, and no input may panic or set a lane outside the slot
// space.
func FuzzDecodePlans(f *testing.F) {
	e, cases := planSystem(f)
	for i, c := range cases {
		f.Add(uint8(i), c.frame)
		f.Add(uint8(i), encodePlans(e, c.pi, c.slots[:4]))
		slot := c.slots[0]
		good := encodePlans(e, c.pi, []int{slot})[len(record(slot, c.lanes[0], nil)):]
		body, _ := badBody(c.name)
		f.Add(uint8(i), record(slot, -1, body))
		if c.name == "uo2" {
			f.Add(uint8(i), record(slot, -1, uo2Timeout(good)))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, frame []byte) {
		c := cases[int(which)%len(cases)]
		if err := decode(e, c, frame); err != nil && !errors.Is(err, sim.ErrBadPlan) {
			t.Fatalf("err = %v, want ErrBadPlan", err)
		}
		checkLanes(t, e, c)
	})
}

// shardSlots is the shard size of the allocation guard and the codec
// benchmarks.
const shardSlots = 2000

// TestPlanCodecAllocationFree: once warm, encoding and decoding the
// plan-record frame of a 2 000-slot shard allocates nothing, for every
// routing protocol — a dist barrier moves its records through reused
// buffers only. The routing protocols share one plan region per slot, and
// the protocols after c have reused it since c's frame was captured, so
// each case first decodes its captured frame: the re-encoding must then
// give the captured bytes back.
func TestPlanCodecAllocationFree(t *testing.T) {
	e, cases := planSystemOf(t, shardSlots)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if len(c.slots) != shardSlots {
				t.Fatalf("shard of %d slots, want %d", len(c.slots), shardSlots)
			}
			if err := decode(e, c, c.frame); err != nil {
				t.Fatal(err)
			}
			var w snap.Writer
			e.EncodePlans(c.pi, &w, c.slots)
			if !bytes.Equal(w.Encoded(), c.frame) {
				t.Fatal("the warm-up encoding differs from the captured frame")
			}
			encode := testing.AllocsPerRun(20, func() {
				w.Reset(w.Encoded()[:0])
				e.EncodePlans(c.pi, &w, c.slots)
			})
			var r snap.Reader
			var err error
			decode := testing.AllocsPerRun(20, func() {
				r.Reset(c.frame)
				err = e.DecodePlans(c.pi, &r)
			})
			if err != nil {
				t.Fatal(err)
			}
			if encode != 0 || decode != 0 {
				t.Fatalf("warm %d-slot frame: %v allocs to encode, %v to decode, want 0 and 0", shardSlots, encode, decode)
			}
		})
	}
}

// BenchmarkEncodePlans encodes every routing protocol's plan-record frame
// of a 2 000-slot shard into a reused buffer: one op is one round of a
// dist worker's encoding.
func BenchmarkEncodePlans(b *testing.B) {
	e, cases := planSystemOf(b, shardSlots)
	var w snap.Writer
	size := 0
	for _, c := range cases {
		size += len(c.frame)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			w.Reset(w.Encoded()[:0])
			e.EncodePlans(c.pi, &w, c.slots)
		}
	}
}

// BenchmarkDecodePlans decodes every routing protocol's plan-record frame
// of a 2 000-slot shard: one op is one round of importing a remote shard.
func BenchmarkDecodePlans(b *testing.B) {
	e, cases := planSystemOf(b, shardSlots)
	var r snap.Reader
	size := 0
	for _, c := range cases {
		size += len(c.frame)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			r.Reset(c.frame)
			if err := e.DecodePlans(c.pi, &r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
