package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"sosf/internal/spec"
	"sosf/internal/view"
)

func TestPortRecordBetter(t *testing.T) {
	inv := invalidRecord()
	a := PortRecord{Score: 5, ID: 1}
	b := PortRecord{Score: 5, ID: 2}
	c := PortRecord{Score: 9, ID: 0}
	cases := []struct {
		r, other PortRecord
		want     bool
	}{
		{a, inv, true},
		{inv, a, false},
		{inv, inv, false},
		{a, b, true},  // tie on score, lower ID wins
		{b, a, false}, // symmetric
		{a, c, true},  // lower score wins regardless of ID
		{c, a, false},
		{a, a, false}, // never strictly better than itself
	}
	for i, tc := range cases {
		if got := tc.r.Better(tc.other); got != tc.want {
			t.Fatalf("case %d: Better(%v, %v) = %v, want %v", i, tc.r, tc.other, got, tc.want)
		}
	}
}

// Property: Better is a strict total order over valid records with
// distinct (score, id) pairs: exactly one of Better(a,b), Better(b,a)
// holds.
func TestBetterTotalOrder(t *testing.T) {
	f := func(s1, s2 uint32, id1, id2 uint8) bool {
		a := PortRecord{Score: uint64(s1), ID: view.NodeID(id1)}
		b := PortRecord{Score: uint64(s2), ID: view.NodeID(id2)}
		if a.Score == b.Score && a.ID == b.ID {
			return !a.Better(b) && !b.Better(a)
		}
		return a.Better(b) != b.Better(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRecordsRules(t *testing.T) {
	const now = 50
	better := PortRecord{Score: 1, ID: 10, Stamp: 45}
	worse := PortRecord{Score: 9, ID: 20, Stamp: 49}
	stale := PortRecord{Score: 0, ID: 30, Stamp: 10} // best score but expired

	dst := []PortRecord{worse, invalidRecord(), better}
	src := []PortRecord{better, stale, PortRecord{Score: 1, ID: 10, Stamp: 48}}
	mergeRecords(dst, src, now)

	if dst[0] != better {
		t.Fatalf("slot 0: better claim should win, got %v", dst[0])
	}
	if dst[1].Valid() {
		t.Fatalf("slot 1: expired claim must not be adopted, got %v", dst[1])
	}
	if dst[2].Stamp != 48 {
		t.Fatalf("slot 2: same claim should keep freshest stamp, got %v", dst[2])
	}
}

func TestMergeRecordsLengthMismatch(t *testing.T) {
	dst := []PortRecord{invalidRecord(), invalidRecord()}
	src := []PortRecord{{Score: 1, ID: 1, Stamp: 1}}
	mergeRecords(dst, src, 1) // must not panic
	if !dst[0].Valid() || dst[1].Valid() {
		t.Fatalf("mismatched merge: %v", dst)
	}
}

func TestAdoptBelief(t *testing.T) {
	r := invalidRecord()
	first := PortRecord{Score: 7, ID: 3, Stamp: 5}
	adoptBelief(&r, first)
	if r != first {
		t.Fatalf("first answer should be adopted: %v", r)
	}
	adoptBelief(&r, PortRecord{Score: 7, ID: 3, Stamp: 9})
	if r.Stamp != 9 {
		t.Fatalf("fresher stamp should refresh: %v", r)
	}
	adoptBelief(&r, PortRecord{Score: 7, ID: 3, Stamp: 2})
	if r.Stamp != 9 {
		t.Fatalf("staler stamp must not regress: %v", r)
	}
	adoptBelief(&r, PortRecord{Score: 2, ID: 8, Stamp: 1})
	if r.ID != 8 {
		t.Fatalf("better claim should replace: %v", r)
	}
}

func TestBeliefOutOfRange(t *testing.T) {
	s, err := NewSystem(Config{Topology: ringsTopo(2), Nodes: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := s.ports.Belief(0, 99); got.Valid() {
		t.Fatalf("out-of-range port should be invalid, got %v", got)
	}
	if got := s.conns.Remote(0, 99); got.Valid() {
		t.Fatalf("out-of-range side should be invalid, got %v", got)
	}
}

func TestPortSelectConvergesToOracleWinner(t *testing.T) {
	s, err := NewSystem(Config{Topology: ringsTopo(2), Nodes: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr := track(s, true)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if !tr.Last.Converged(SubPortSelect) {
		t.Fatal("port selection did not converge")
	}
	// The elected manager is deterministic: lowest election score of the
	// alive membership, independent of gossip order.
	members := s.Oracle().Members()
	for c, ms := range members {
		for port := int32(0); port < 2; port++ {
			w1, _ := s.Oracle().Winner(ms, view.ComponentID(c), port)
			w2, _ := s.Oracle().Winner(ms, view.ComponentID(c), port)
			if w1.ID != w2.ID {
				t.Fatal("oracle winner not deterministic")
			}
		}
	}
}

func TestSameComponentLink(t *testing.T) {
	// A component linked to itself through two different ports: port
	// connection resolves it locally (port selection already gossips all
	// component ports), so the "link" must converge like any other.
	topo := ringsTopo(1) // 1 ring: link rings[0].head -> rings[0].tail
	s, err := NewSystem(Config{Topology: topo, Nodes: 80, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr := track(s, true)
	if _, err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	final := tr.Last
	if !final.Converged(SubPortConnect) {
		t.Fatalf("same-component link did not converge: %f", final.Fraction[SubPortConnect])
	}
}

// chordedRingsTopo is ringsTopo(k) plus a chord from every ring to the ring
// two places on, so each component carries four link sides instead of two.
func chordedRingsTopo(k int) *spec.Topology {
	t := ringsTopo(k)
	for i := range t.Components {
		t.Components[i].Ports = append(t.Components[i].Ports, "up", "down")
	}
	for i := 0; i < k; i++ {
		t.Links = append(t.Links, spec.Link{
			A: spec.PortRef{Component: compName(i), Port: "up"},
			B: spec.PortRef{Component: compName((i + 2) % k), Port: "down"},
		})
	}
	return t
}

// TestPortConnectFirstSyncParallel drives the three ways a belief table is
// (re)sized from the parallel Refresh phase — the first sync of a fresh
// population, a flash join, and a reconfiguration that widens every
// component's row — at four workers, and requires the run to match its
// serial twin round by round and in the final snapshot. Under -race it also
// proves no slot's sync touches shared storage.
func TestPortConnectFirstSyncParallel(t *testing.T) {
	run := func(workers int) ([]string, []byte) {
		sys, err := NewSystem(Config{Topology: ringsTopo(6), Nodes: 600, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		trace := traceRounds(t, sys, 4)
		sys.AddNodes(300)
		trace = append(trace, traceRounds(t, sys, 4)...)
		if err := sys.Reconfigure(chordedRingsTopo(6)); err != nil {
			t.Fatal(err)
		}
		trace = append(trace, traceRounds(t, sys, 8)...)
		return trace, checkpoint(t, sys)
	}
	serial, serialSnap := run(1)
	pooled, pooledSnap := run(4)
	for i := range serial {
		if pooled[i] != serial[i] {
			t.Fatalf("round %d diverges at workers=4:\n  serial: %s\n  pooled: %s", i+1, serial[i], pooled[i])
		}
	}
	if !bytes.Equal(pooledSnap, serialSnap) {
		t.Fatal("final snapshots differ between workers=1 and workers=4")
	}
}
