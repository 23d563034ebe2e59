package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/spec"
)

// snapTopo builds a small two-ring topology with a link, programmatically
// (core tests cannot import the DSL compiler without a cycle).
func snapTopo() *spec.Topology {
	return &spec.Topology{
		Name: "snaptest",
		Components: []spec.Component{
			{Name: "a", Shape: "ring", Weight: 1, Ports: []string{"p"}},
			{Name: "b", Shape: "ring", Weight: 1, Ports: []string{"q"}},
		},
		Links: []spec.Link{{
			A: spec.PortRef{Component: "a", Port: "p"},
			B: spec.PortRef{Component: "b", Port: "q"},
		}},
	}
}

// traceRounds runs n rounds and fingerprints each: oracle accuracies plus
// the round's bandwidth split — dense enough that any drift shows.
func traceRounds(t *testing.T, sys *System, n int) []string {
	t.Helper()
	trace := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if _, err := sys.Run(1); err != nil {
			t.Fatal(err)
		}
		m := sys.Oracle().Measure()
		var b strings.Builder
		fmt.Fprintf(&b, "round=%d alive=%d", sys.Engine().Round(), sys.Engine().AliveCount())
		for _, sub := range Subs() {
			fmt.Fprintf(&b, " %v=%.6f", sub, m.Fraction[sub])
		}
		r := sys.Engine().Meter().Rounds() - 1
		base, over := sys.BandwidthByClass(r)
		fmt.Fprintf(&b, " bw=%d/%d", base, over)
		trace = append(trace, b.String())
	}
	return trace
}

func snapSystem(t *testing.T, seed int64, workers int) *System {
	t.Helper()
	sys, err := NewSystem(Config{
		Topology: snapTopo(),
		Nodes:    80,
		Seed:     seed,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSystemSnapshotResumeEquivalence: run 25 + 15 rounds with mid-run
// damage; snapshot at 25; restore into a fresh system at 1 and at 4 workers;
// both must replay the last 15 rounds identically to the uninterrupted run.
func TestSystemSnapshotResumeEquivalence(t *testing.T) {
	ref := snapSystem(t, 42, 1)
	if _, err := ref.Run(20); err != nil {
		t.Fatal(err)
	}
	ref.Kill(0.2)
	ref.AddNodes(10)
	ref.Engine().SetLossRate(0.05)
	if _, err := ref.Run(5); err != nil {
		t.Fatal(err)
	}

	buf := checkpoint(t, ref)
	snapBytes := buf
	want := traceRounds(t, ref, 15)

	// Restore into a freshly booted system (different seed: the snapshot
	// is authoritative for all randomness).
	cont := snapSystem(t, 7, 1)
	if err := cont.Restore(snap.NewBytesReader(snapBytes)); err != nil {
		t.Fatal(err)
	}
	if got := cont.Engine().Round(); got != 25 {
		t.Fatalf("restored round = %d, want 25", got)
	}
	if got := traceRounds(t, cont, 15); !equalTrace(got, want) {
		t.Fatalf("restored run diverged:\n got %v\nwant %v", got, want)
	}

	// The same bytes into a system sharded across 4 workers — the worker
	// count must stay invisible across a restore.
	warm := snapSystem(t, 7, 4)
	if err := warm.Restore(snap.NewBytesReader(snapBytes)); err != nil {
		t.Fatal(err)
	}
	if got := traceRounds(t, warm, 15); !equalTrace(got, want) {
		t.Fatalf("4-worker restored run diverged:\n got %v\nwant %v", got, want)
	}
}

// TestSystemSnapshotAfterReconfigure: the snapshot must carry the *active*
// topology, not the boot one, or the allocator restores against the wrong
// shapes and sides.
func TestSystemSnapshotAfterReconfigure(t *testing.T) {
	ref := snapSystem(t, 3, 1)
	if _, err := ref.Run(10); err != nil {
		t.Fatal(err)
	}
	next := snapTopo()
	next.Name = "snaptest2"
	next.Components = append(next.Components,
		spec.Component{Name: "c", Shape: "ring", Weight: 1, Ports: []string{"r"}})
	next.Links = append(next.Links, spec.Link{
		A: spec.PortRef{Component: "b", Port: "q"},
		B: spec.PortRef{Component: "c", Port: "r"},
	})
	if err := ref.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(10); err != nil {
		t.Fatal(err)
	}

	buf := checkpoint(t, ref)
	want := traceRounds(t, ref, 10)

	cont := snapSystem(t, 3, 1)
	if err := cont.Restore(snap.NewBytesReader(buf)); err != nil {
		t.Fatal(err)
	}
	if got := cont.Allocator().Topology().Name; got != "snaptest2" {
		t.Fatalf("restored topology = %q, want the active one", got)
	}
	if got := cont.Allocator().Epoch(); got != 1 {
		t.Fatalf("restored epoch = %d, want 1", got)
	}
	if got := traceRounds(t, cont, 10); !equalTrace(got, want) {
		t.Fatalf("post-reconfigure resume diverged:\n got %v\nwant %v", got, want)
	}
}

// TestRestoreRejectsMismatchedKnobs: resuming under different protocol
// parameters would silently diverge, so every knob the snapshot's
// configuration section compares must refuse the restore on its own.
func TestRestoreRejectsMismatchedKnobs(t *testing.T) {
	ref := snapSystem(t, 1, 1)
	if _, err := ref.Run(3); err != nil {
		t.Fatal(err)
	}
	buf := checkpoint(t, ref)

	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"UO1Capacity", func(c *Config) { c.UO1Capacity = 12 }},    // default 8
		{"OverlayGossip", func(c *Config) { c.OverlayGossip = 7 }}, // default 5
		{"DisableUO2", func(c *Config) { c.DisableUO2 = true }},
		{"PureGreedy", func(c *Config) { c.PureGreedy = true }},
		{"DisableHealing", func(c *Config) { c.DisableHealing = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Topology: snapTopo(), Nodes: 80, Seed: 1}
			tc.set(&cfg)
			other, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := other.Restore(snap.NewBytesReader(buf)); err == nil {
				t.Fatalf("restore under a different %s succeeded", tc.name)
			} else if !strings.Contains(err.Error(), "configuration") {
				t.Fatalf("err = %v, want configuration mismatch", err)
			}
		})
	}
}

// TestRestoreRejectsProtocolSlotCount edits one protocol body's slot count
// in a real system checkpoint, one protocol at a time: the restore must
// fail with the engine's slot-count error naming that protocol.
func TestRestoreRejectsProtocolSlotCount(t *testing.T) {
	ref := snapSystem(t, 1, 1)
	if _, err := ref.Run(3); err != nil {
		t.Fatal(err)
	}
	buf := checkpoint(t, ref)
	size := ref.Engine().Size()
	if size >= 128 {
		t.Fatalf("%d slots: the count must be one varint byte for the in-place edit", size)
	}
	// The engine writes the stack's names once, then the meter's history
	// rows, then one length-prefixed body per protocol in stack order, each
	// opening with its slot count.
	names := ref.Engine().Meter().Names()
	var stack snap.Writer
	stack.Len(len(names))
	for _, name := range names {
		stack.String(name)
	}
	at := bytes.Index(buf, stack.Encoded()) + len(stack.Encoded())
	r := snap.NewBytesReader(buf[at:])
	for range r.Len() * len(names) {
		r.Varint()
	}
	for _, name := range names {
		body := r.Bytes()
		if err := r.Err(); err != nil || len(body) == 0 || body[0] != byte(size) {
			t.Fatalf("no %d-slot %q body (%v)", size, name, err)
		}
		count := at + r.Offset() - len(body)
		t.Run(name, func(t *testing.T) {
			cp := bytes.Clone(buf)
			cp[count]--
			err := snapSystem(t, 1, 1).Restore(snap.NewBytesReader(cp))
			if !errors.Is(err, sim.ErrSlotCount) || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Fatalf("err = %v, want sim.ErrSlotCount naming %q", err, name)
			}
		})
	}
}

// TestRestoreRejectsNextIndexPastSlots restores a checkpoint whose
// allocator claims a component handed out 2^26 indices on 80 slots: the
// restore must refuse it by name before it sizes a 256 MiB rank table.
func TestRestoreRejectsNextIndexPastSlots(t *testing.T) {
	ref := snapSystem(t, 1, 1)
	ref.alloc.nextIndex[0] = 1 << 26
	buf := checkpoint(t, ref)
	sys := snapSystem(t, 1, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := sys.Restore(snap.NewBytesReader(buf))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "next index") {
		t.Fatalf("err = %v, want the next-index rejection", err)
	}
	const bound = 32 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("restore allocated %d bytes, want <= %d", grew, bound)
	}
}

// checkpoint snapshots sys into memory.
func checkpoint(t *testing.T, sys *System) []byte {
	t.Helper()
	var w snap.Writer
	if err := sys.Snapshot(&w); err != nil {
		t.Fatal(err)
	}
	return w.Encoded()
}

func equalTrace(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
