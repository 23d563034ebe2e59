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
)

// codecCase is one sharded protocol of a built system: its codec, the
// plan-record frame of every alive slot captured at the protocol's Deliver
// barrier, and the inbox lane each of those slots' Plan pushed.
type codecCase struct {
	name  string
	codec sim.PlanCodec
	slots []int
	frame []byte
	lanes []int
}

// planSystem builds a 64-node ring of four rings, runs two rounds, and
// captures every codec's frame during a third, sharded round whose one
// shard is the whole alive population.
func planSystem(tb testing.TB) (*sim.Engine, []codecCase) {
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
	sys, err := core.NewSystem(core.Config{Topology: topo, Nodes: 64, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	e := sys.Engine()
	if _, err := e.Run(2); err != nil {
		tb.Fatal(err)
	}
	var cases []codecCase
	_, err = e.RunRoundSharded(0, e.Size(), func(_ int, codec sim.PlanCodec, shard []int) error {
		c := codecCase{
			name:  codec.(sim.Protocol).Name(),
			codec: codec,
			slots: append([]int(nil), shard...),
			frame: encodePlans(codec, shard),
		}
		for _, s := range shard {
			c.lanes = append(c.lanes, sim.PlannedLane(codec.Inboxes()[0], s))
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

func encodePlans(codec sim.PlanCodec, slots []int) []byte {
	var buf bytes.Buffer
	sim.EncodePlans(codec, snap.NewWriter(&buf), slots)
	return buf.Bytes()
}

func decode(e *sim.Engine, c codecCase, frame []byte) error {
	return e.DecodePlans(c.codec, snap.NewReader(bytes.NewReader(frame)))
}

// varint is the frame's encoding of one int (snap.Writer.Int).
func varint(v int) []byte {
	var buf bytes.Buffer
	snap.NewWriter(&buf).Int(v)
	return buf.Bytes()
}

// record frames one record: a count of 1, the slot, then body verbatim.
func record(slot int, body []byte) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Len(1)
	w.Int(slot)
	buf.Write(body)
	return buf.Bytes()
}

// body returns the encoded body of slot's current plan record.
func body(c codecCase, slot int) []byte {
	return encodePlans(c.codec, []int{slot})[len(record(slot, nil)):]
}

func splice(b []byte, at, n int, with []byte) []byte {
	out := append([]byte(nil), b[:at]...)
	out = append(out, with...)
	return append(out, b[at+n:]...)
}

// checkLanes fails if any lane of c's inbox points outside the slot space.
func checkLanes(t *testing.T, e *sim.Engine, c codecCase) {
	t.Helper()
	for s := 0; s < e.Size(); s++ {
		if lane := sim.PlannedLane(c.codec.Inboxes()[0], s); lane < -1 || lane >= e.Size() {
			t.Fatalf("%s: slot %d lane %d outside [-1,%d)", c.name, s, lane, e.Size())
		}
	}
}

// firstDelivered returns the index of the first captured slot whose Plan
// pushed an exchange.
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

// withTarget returns the body of slot's delivered record with its target
// replaced by target. It finds the target field without knowing the
// codec's layout: the one occurrence of the old target's encoding whose
// substitution by another slot's moves the pushed lane there.
func withTarget(t *testing.T, e *sim.Engine, c codecCase, slot int, b []byte, old, target int) []byte {
	t.Helper()
	oldEnc := varint(old)
	alt := (old + 1) % e.Size()
	altEnc := varint(alt)
	for at := 0; at+len(oldEnc) <= len(b); at++ {
		if !bytes.Equal(b[at:at+len(oldEnc)], oldEnc) {
			continue
		}
		if decode(e, c, record(slot, splice(b, at, len(oldEnc), altEnc))) == nil &&
			sim.PlannedLane(c.codec.Inboxes()[0], slot) == alt {
			return splice(b, at, len(oldEnc), varint(target))
		}
	}
	t.Fatalf("%s: no target field in slot %d's body % x (target %d)", c.name, slot, b, old)
	return nil
}

// TestPlanFrameRoundTrip decodes every codec's captured frame into a
// replica whose plans have moved on a round, and requires the frame to
// re-encode byte for byte and every pushed lane to match the one the
// slot's own Plan pushed.
func TestPlanFrameRoundTrip(t *testing.T) {
	e, cases := planSystem(t)
	e.RunRound()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			firstDelivered(t, c)
			if bytes.Equal(encodePlans(c.codec, c.slots), c.frame) {
				t.Fatal("a round later the plans still encode the captured frame; the round trip would prove nothing")
			}
			inbox := c.codec.Inboxes()[0]
			for s := 0; s < e.Size(); s++ {
				inbox.Reset(s)
			}
			if err := decode(e, c, c.frame); err != nil {
				t.Fatal(err)
			}
			if got := encodePlans(c.codec, c.slots); !bytes.Equal(got, c.frame) {
				t.Fatalf("re-encoded frame differs: %d bytes, captured %d", len(got), len(c.frame))
			}
			for i, s := range c.slots {
				if got := sim.PlannedLane(inbox, s); got != c.lanes[i] {
					t.Fatalf("slot %d lane %d, its Plan pushed %d", s, got, c.lanes[i])
				}
			}
		})
	}
}

// TestDecodePlansRejectsMalformed feeds every codec broken frames: each
// must fail with an error wrapping ErrBadPlan, without a panic and without
// pushing a lane outside the slot space.
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
			good := body(c, slot)
			kind := append(varint(1<<20), make([]byte, 8)...)
			type badFrame struct {
				name, want string
				frame      []byte
			}
			bad := []badFrame{
				{"slot -1", "out of range", record(-1, good)},
				{"slot = size", "out of range", record(size, good)},
				{"target -1", "out of range", record(slot, withTarget(t, e, c, slot, good, target, -1))},
				{"target = size", "out of range", record(slot, withTarget(t, e, c, slot, good, target, size))},
				{"unknown kind", "unknown plan kind", record(slot, kind)},
			}
			three := encodePlans(c.codec, c.slots[:3])
			for cut := 0; cut < len(three); cut++ {
				bad = append(bad, badFrame{fmt.Sprintf("truncated at %d of %d", cut, len(three)), "", three[:cut]})
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
// ErrBadPlan, and no input may panic or push a lane outside the slot
// space.
func FuzzDecodePlans(f *testing.F) {
	e, cases := planSystem(f)
	for i, c := range cases {
		f.Add(uint8(i), c.frame)
		f.Add(uint8(i), encodePlans(c.codec, c.slots[:4]))
	}
	f.Fuzz(func(t *testing.T, which uint8, frame []byte) {
		c := cases[int(which)%len(cases)]
		if err := decode(e, c, frame); err != nil && !errors.Is(err, sim.ErrBadPlan) {
			t.Fatalf("err = %v, want ErrBadPlan", err)
		}
		checkLanes(t, e, c)
	})
}
