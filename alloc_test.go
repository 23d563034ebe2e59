package sosf

// Allocation-regression guard for the gossip hot path: a steady-state
// round must not touch the heap — at any worker count. Protocol phases run
// entirely on per-worker scratch pads (sim.Pad), per-slot retained plan
// records, the engine's plan region and intrusive route tables, the
// alive-slot cache, and the meter's arena; the worker pool parks its goroutines between phases
// instead of respawning them. Once buffers have grown to their working size
// the only way a round allocates is a regression — which this test turns
// into a failure instead of a slow creep across PRs.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"sosf/internal/core"
	"sosf/internal/eval"
	"sosf/internal/peersampling"
	"sosf/internal/sim"
)

// allocWorkerCounts are the pool widths the steady state must stay
// heap-silent at. Worker counts beyond the core count still shard (the
// goroutines interleave), so the guard is meaningful even on small runners.
var allocWorkerCounts = []int{1, 2, 4, 8}

// TestCyclonRoundAllocationFree pins the bottom of the stack: one round of
// the peer-sampling service (Cyclon) over 1 000 stable nodes performs zero
// heap allocations, for every worker count.
func TestCyclonRoundAllocationFree(t *testing.T) {
	for _, workers := range allocWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := sim.New(1)
			eng.SetWorkers(workers)
			rps := peersampling.New()
			eng.Register(rps)
			for _, slot := range eng.AddNodes(1000) {
				eng.InitNode(slot)
			}
			// Warm past bootstrap so views are full, every scratch buffer
			// has reached its steady-state capacity, and the worker pool
			// has spawned its goroutines.
			if _, err := eng.Run(30); err != nil {
				t.Fatal(err)
			}
			const rounds = 100
			eng.Meter().Reserve(rounds + 1)
			avg := testing.AllocsPerRun(rounds, func() {
				eng.RunRound()
			})
			if avg != 0 {
				t.Fatalf("steady-state Cyclon round allocates: %v allocs/round, want 0", avg)
			}
		})
	}
}

// TestFullStackRoundAllocationFree bounds the whole runtime stack (peer
// sampling, UO1, UO2, core overlay, port selection, port connection): a
// steady-state round over 1 000 nodes performs zero heap allocations at
// every worker count — every phase runs on worker pads, plan records, the
// plan region, and retained tables.
func TestFullStackRoundAllocationFree(t *testing.T) {
	for _, workers := range allocWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys, err := core.NewSystem(core.Config{
				Topology: eval.MustTopology(eval.RingOfRingsDSL(4)),
				Nodes:    1000,
				Seed:     1,
				Workers:  workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(30); err != nil {
				t.Fatal(err)
			}
			const rounds = 50
			sys.Engine().Meter().Reserve(rounds + 1)
			avg := testing.AllocsPerRun(rounds, func() {
				sys.Engine().RunRound()
			})
			if avg != 0 {
				t.Fatalf("steady-state full-stack round allocates: %v allocs/round, want 0", avg)
			}
		})
	}
}

// TestFacadeStepAllocationBound carries the guard across the public facade,
// where the round-end hook lives: tracker → Oracle.Measure, the event
// emitter and a subscriber. A steady-state Step(1) may allocate only the
// RoundEvent's Accuracy map (2 objects on go1.24) and nothing that scales
// with the population — the count must be identical at 1 000 and 4 000
// nodes, so per-node garbage cannot hide behind the engine-level guards
// above again.
func TestFacadeStepAllocationBound(t *testing.T) {
	const maxAllocs = 2
	measure := func(nodes int) float64 {
		sys, err := New(eval.RingOfRingsDSL(4), WithNodes(nodes), WithSeed(1), WithWorkers(1), WithRunToEnd())
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		sys.Subscribe(func(RoundEvent) { events++ })
		if _, err := sys.Step(30); err != nil {
			t.Fatal(err)
		}
		const rounds = 20
		sys.Engine().Meter().Reserve(rounds + 1)
		avg := testing.AllocsPerRun(rounds, func() {
			if _, err := sys.Step(1); err != nil {
				t.Fatal(err)
			}
		})
		if events != 30+rounds+1 {
			t.Fatalf("subscriber saw %d events, want %d", events, 30+rounds+1)
		}
		return avg
	}
	small, large := measure(1000), measure(4000)
	t.Logf("allocs/round: %v at 1000 nodes, %v at 4000", small, large)
	if small > maxAllocs {
		t.Fatalf("steady-state Step(1) allocates %v objects/round at 1000 nodes, want <= %d", small, maxAllocs)
	}
	if large != small {
		t.Fatalf("Step(1) allocations scale with the population: %v/round at 1000 nodes, %v/round at 4000", small, large)
	}
}

// TestReconfigureStepAllocationBound holds a reconfigured system to
// TestFacadeStepAllocationBound's per-round bound: after a Reconfigure from
// 4 rings to more and two warm rounds, a Step(1) may allocate no more than
// a steady-state one. UO2's published table grows with the component
// count, and the engine re-derives the plan region's width every round, so
// the table stays in the region instead of spilling into a heap copy per
// slot and round. At 8 rings the table (9 descriptors) still fits the
// width Cyclon's 16 set; at 20 (21 descriptors) the region must widen.
// The warm rounds are for UO2's contact tables, carved one row per old
// component: each grows once per slot as its node learns new components,
// and at 20 rings some learn their last ones in the second round.
func TestReconfigureStepAllocationBound(t *testing.T) {
	const maxAllocs = 2 // TestFacadeStepAllocationBound's
	for _, rings := range []int{8, 20} {
		t.Run(fmt.Sprintf("rings=%d", rings), func(t *testing.T) {
			sys, err := New(eval.RingOfRingsDSL(4), WithNodes(1000), WithSeed(1), WithWorkers(1), WithRunToEnd())
			if err != nil {
				t.Fatal(err)
			}
			sys.Subscribe(func(RoundEvent) {})
			if _, err := sys.Step(30); err != nil {
				t.Fatal(err)
			}
			if err := sys.ReconfigureSource(eval.RingOfRingsDSL(rings)); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Step(2); err != nil {
				t.Fatal(err)
			}
			const rounds = 20
			sys.Engine().Meter().Reserve(rounds + 1)
			avg := testing.AllocsPerRun(rounds, func() {
				if _, err := sys.Step(1); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocs/round after a 4 → %d ring reconfiguration: %v", rings, avg)
			if avg > maxAllocs {
				t.Fatalf("Step(1) after a 4 → %d ring reconfiguration allocates %v objects/round, want <= %d", rings, avg, maxAllocs)
			}
		})
	}
}

// bytesPerNodeBound caps the live heap one node of BenchmarkRound's
// ring of 20 rings may hold at 10 000 nodes after 16 rounds: views, the
// engine's plan region, plan records, contact and election tables, the
// engine's route tables and node table, divided by the population. It
// measures 3 766 B on amd64 with go1.24, and the bound is that plus 10 %;
// the README's "Struct-of-arrays hot state" section breaks it down by
// structure.
const bytesPerNodeBound = 4150

// liveBytesPerNode builds BenchmarkRound's ring of 20 rings at the given
// population on one worker, steps it the given rounds, and returns the live
// heap the system holds (HeapAlloc after a forced GC, minus the same before
// the build) divided by the population.
func liveBytesPerNode(t *testing.T, nodes, rounds int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys := roundSystem(t, nodes, 1)
	if _, err := sys.Run(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(nodes)
}

// TestBytesPerNodeBound pins the resident state of a node the way
// TestFacadeStepAllocationBound pins per-round allocations: a field added
// to a hot struct or a per-slot buffer that grows shows here as bytes per
// node long before a large population stops fitting the machine.
func TestBytesPerNodeBound(t *testing.T) {
	perNode := liveBytesPerNode(t, 10_000, 16)
	t.Logf("live heap: %.0f B/node at 10 000 nodes after 16 rounds (bound %d)", perNode, bytesPerNodeBound)
	if perNode > bytesPerNodeBound {
		t.Fatalf("live heap is %.0f B/node at 10 000 nodes, want <= %d", perNode, bytesPerNodeBound)
	}
}

// millionNodeHeadroom is how much more memory than its live heap a
// million-node build and round may touch: the Go heap grows past the live
// set before each collection, and the runtime keeps freed spans for reuse.
// The ratio shrinks as the population grows: peak RSS of the same build and
// two rounds measured 1.21× the live heap at 100 000 nodes and 1.14× at
// 200 000, and at 1 000 000 nodes 5.82 GB, 1.06× the 10 000-node estimate
// (5 514 B × 10⁶; go1.24, 2 vCPU / 8 GB). 1.1 covers that with room for
// the rest of the box, without skipping a box that runs the round. With
// the shared plan region the estimate is 3 766 B × 10⁶, and the build and
// two rounds peaked at 3.86 GB RSS, 1.02× it (one measured round: 13.6 s
// at 2 workers; same box).
const millionNodeHeadroom = 1.1

// memAvailable returns the kernel's MemAvailable estimate in bytes, or
// false where /proc/meminfo is absent or unreadable.
func memAvailable() (uint64, bool) {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "MemAvailable:" && fields[2] == "kB" {
			kb, err := strconv.ParseUint(fields[1], 10, 64)
			return kb << 10, err == nil
		}
	}
	return 0, false
}

// TestMillionNodeRound is the scale smoke: a full-stack million-node
// population (BenchmarkRound's configuration) must build and complete
// steady-state rounds. One warm round has already carved every per-slot
// arena the steady state touches, so the measured round must be
// allocation-free modulo runtime noise (ReadMemStats counts background
// allocations too). One warm plus one measured round keeps it affordable in
// the unshortened test run; -short skips it entirely.
//
// Before building, it sizes itself: the live heap per node of the 10 000-
// node system, times a million, times millionNodeHeadroom. A box whose
// MemAvailable falls short skips with both numbers instead of having the
// kernel kill the whole test binary.
func TestMillionNodeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node round smoke skipped in -short mode")
	}
	const nodes = 1_000_000
	need := uint64(liveBytesPerNode(t, 10_000, 16) * nodes * millionNodeHeadroom)
	if avail, ok := memAvailable(); ok && avail < need {
		t.Skipf("insufficient memory: a %d-node round needs ~%.2f GB (10 000-node live heap per node × %d × headroom %.1f), MemAvailable is %.2f GB",
			nodes, float64(need)/1e9, nodes, millionNodeHeadroom, float64(avail)/1e9)
	}
	// The collection below sets the heap goal to twice the million-node live
	// heap, more than the box holds. Collect once the system is unreachable,
	// so the tests after this one do not grow the heap toward that goal.
	t.Cleanup(debug.FreeOSMemory)
	sys := roundSystem(t, nodes, runtime.GOMAXPROCS(0))
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	sys.Engine().Meter().Reserve(2)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if _, err := sys.Run(1); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 100 {
		t.Fatalf("measured round made %d allocations; the hot path should be allocation-free", allocs)
	}
	t.Logf("1M-node round: %v (workers=%d)", elapsed.Round(time.Millisecond), sys.Engine().Workers())
}
