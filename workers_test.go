package sosf

// Cross-worker-count determinism: the property this PR's engine is built
// around. One simulation round is sharded across a worker pool, but every
// random decision flows from counter-based per-node streams keyed by
// (seed, node, round, protocol, phase), the serial Deliver phase fixes all
// cross-node ordering, and the parallel Absorb phase only touches
// slot-local state — so the streamed round events (and through them every
// figure and report) must be byte-identical for workers ∈ {1, 2, 4, 8},
// over multiple seeds, topologies, and fault timelines including churn and
// network partitions.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// workerCounts are the widths every property below must agree across.
var workerCounts = []int{1, 2, 4, 8}

// streamEvents runs src to the scenario horizon (or DefaultRounds) with the
// given options and returns the JSONL round-event stream.
func streamEvents(t *testing.T, src string, opts ...Option) []byte {
	t.Helper()
	sys, err := New(src, append(opts, WithRunToEnd())...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sys.Subscribe(JSONLSink(&buf))
	rounds := DefaultRounds
	if h := sys.ScenarioHorizon(); h > rounds {
		rounds = h
	}
	if _, err := sys.Step(rounds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertWorkerInvariant checks the stream is identical for every worker
// count, reporting the first diverging line on failure.
func assertWorkerInvariant(t *testing.T, src string, opts ...Option) {
	t.Helper()
	var base []byte
	for _, w := range workerCounts {
		got := streamEvents(t, src, append(opts, WithWorkers(w))...)
		if w == workerCounts[0] {
			base = got
			continue
		}
		if bytes.Equal(base, got) {
			continue
		}
		baseLines := bytes.Split(base, []byte("\n"))
		gotLines := bytes.Split(got, []byte("\n"))
		for i := 0; i < len(baseLines) || i < len(gotLines); i++ {
			var a, b []byte
			if i < len(baseLines) {
				a = baseLines[i]
			}
			if i < len(gotLines) {
				b = gotLines[i]
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("workers=%d diverges from workers=1 at line %d:\n  w1: %s\n  w%d: %s",
					w, i+1, a, w, b)
			}
		}
		t.Fatalf("workers=%d stream differs from workers=1 (lengths %d vs %d)", w, len(base), len(got))
	}
}

// TestWorkerCountInvariantScenario replays the golden fixture's scenario
// (loss window, 30% blast, live reconfiguration, component kill) at every
// worker count and over several seeds.
func TestWorkerCountInvariantScenario(t *testing.T) {
	src, err := os.ReadFile("testdata/playdemo.sos")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1] // the -race -short CI lap replays one seed
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertWorkerInvariant(t, string(src), WithSeed(seed))
		})
	}
}

// TestWorkerCountInvariantPartitionChurn drives the harder timeline the
// golden scenario does not cover: continuous churn with a network
// partition splitting and healing mid-run, over a second topology.
func TestWorkerCountInvariantPartitionChurn(t *testing.T) {
	ringpair, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	src := withScenario(string(ringpair),
		"during 5 60 churn 0.02",
		"during 20 40 partition 2",
		"at 50 kill 0.2",
	)
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			assertWorkerInvariant(t, src, WithSeed(seed), WithRounds(80), WithLoss(0.05))
		})
	}
}

// TestWorkerCountInvariantTopologies sweeps structurally different shapes
// (star hubs have view capacities far above the gossip size; grids and
// trees stress the rank-sort paths) under plain convergence runs.
func TestWorkerCountInvariantTopologies(t *testing.T) {
	topologies := map[string]string{
		"starpair": `topology starpair {
			nodes 120
			component hub star { port mid }
			component rim ring { port in }
			link hub.mid rim.in
		}`,
		"gridtree": `topology gridtree {
			nodes 150
			component plane grid {
				param width 6
				port corner
			}
			component crown tree { port root }
			link plane.corner crown.root
		}`,
	}
	for name, src := range topologies {
		t.Run(name, func(t *testing.T) {
			assertWorkerInvariant(t, src, WithSeed(5), WithRounds(60))
		})
	}
}

// TestWorkerCountInvariantReports pins the full report (convergence rounds,
// accuracies, bandwidth) rather than the event stream: the numbers the
// figures are built from must not move with the worker count either.
func TestWorkerCountInvariantReports(t *testing.T) {
	src, err := os.ReadFile("testdata/ringpair.sos")
	if err != nil {
		t.Fatal(err)
	}
	var base string
	for _, w := range workerCounts {
		rep, err := Run(string(src), WithSeed(9), WithRounds(100), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		got := rep.String()
		if w == workerCounts[0] {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("report differs at workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				w, base, w, got)
		}
	}
}
