package dist

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sosf"
	"sosf/internal/sim"
	"sosf/internal/snap"
)

// testSource is a small two-component system with a fault/loss/reconfigure
// timeline — every runtime layer and every sharded protocol gets exercised,
// and the scenario keeps the population moving so shard bounds rebalance.
const testSource = `
topology distpair {
    nodes 96

    component left ring {
        weight 1
        port head
        port tail
    }
    component right ring {
        weight 1
        port head
        port tail
    }

    link left.head right.tail
    link right.head left.tail

    scenario {
        during 8 12 loss 0.2
        at 15 kill 0.3
        at 25 reconfigure {
            component left ring {
                weight 2
                port head
                port tail
            }
            component right ring {
                weight 1
                port head
                port tail
            }
            link left.head right.tail
            link right.head left.tail
        }
    }
}
`

// serialReference steps the coordinator's replica without any exchange —
// the plain engine path every shard count must reproduce byte for byte.
func serialReference(t *testing.T, cfg Config) (stream, snapshot []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Shards = 1
	cfg.Events = []func(sosf.RoundEvent){sosf.JSONLSink(&buf)}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	sys := c.System()
	if _, err := sys.Step(c.hello.TotalRounds - sys.Round()); err != nil {
		t.Fatalf("Step: %v", err)
	}
	return buf.Bytes(), snapshotOf(t, sys)
}

// distRun runs the config through RunLocal and captures the same outputs.
func distRun(t *testing.T, cfg Config, shards int) (stream, snapshot []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Shards = shards
	cfg.Events = []func(sosf.RoundEvent){sosf.JSONLSink(&buf)}
	sys, err := RunLocal(cfg)
	if err != nil {
		t.Fatalf("RunLocal(shards=%d): %v", shards, err)
	}
	return buf.Bytes(), snapshotOf(t, sys)
}

func snapshotOf(t *testing.T, sys *sosf.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestShardEquivalence is the tentpole contract: the event stream and the
// final snapshot are byte-identical to the serial run at shards 1, 2, and
// 4, with churn keeping the slot space growing under the partition.
func TestShardEquivalence(t *testing.T) {
	cfg := Config{
		Source: testSource,
		Seed:   7, SeedSet: true,
		Churn:  0.01,
		Rounds: 40, RoundsSet: true,
		Threads: 1,
	}
	wantStream, wantSnap := serialReference(t, cfg)
	if len(wantStream) == 0 {
		t.Fatal("serial reference produced no events")
	}
	for _, shards := range []int{1, 2, 4} {
		stream, snap := distRun(t, cfg, shards)
		if !bytes.Equal(stream, wantStream) {
			t.Errorf("shards=%d: event stream diverges from serial run\nserial:\n%s\ndist:\n%s",
				shards, wantStream, stream)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("shards=%d: final snapshot diverges from serial run (%d vs %d bytes)",
				shards, len(snap), len(wantSnap))
		}
	}
}

// TestShardEquivalenceMoreShardsThanUseful pins the degenerate partitions:
// more shards than minimum shard size would suggest, including shards that
// own very few (or transiently zero) slots.
func TestShardEquivalenceManyShards(t *testing.T) {
	cfg := Config{
		Source: testSource,
		Seed:   3, SeedSet: true,
		Rounds: 12, RoundsSet: true,
		Threads: 1,
	}
	wantStream, wantSnap := serialReference(t, cfg)
	stream, snap := distRun(t, cfg, 7)
	if !bytes.Equal(stream, wantStream) {
		t.Error("shards=7: event stream diverges from serial run")
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Error("shards=7: final snapshot diverges from serial run")
	}
}

// TestDistResumeEquivalence cuts one distributed run in two at a
// coordinator checkpoint: snapshot at round 20 from a 2-shard run, resume
// to round 40 at 4 shards, and require the concatenated streams to equal
// the uninterrupted serial run — resume is byte-invisible across both the
// cut and a shard-count change.
func TestDistResumeEquivalence(t *testing.T) {
	base := Config{
		Source: testSource,
		Seed:   7, SeedSet: true,
		Churn:   0.01,
		Threads: 1,
	}
	full := base
	full.Rounds, full.RoundsSet = 40, true
	wantStream, wantSnap := serialReference(t, full)

	ckpt := filepath.Join(t.TempDir(), "dist.sosnap")
	first := base
	first.Rounds, first.RoundsSet = 20, true
	first.SnapPath = ckpt
	firstStream, _ := distRun(t, first, 2)

	second := base
	second.Rounds, second.RoundsSet = 40, true
	second.ResumePath = ckpt
	secondStream, secondSnap := distRun(t, second, 4)

	combined := append(append([]byte(nil), firstStream...), secondStream...)
	if !bytes.Equal(combined, wantStream) {
		t.Errorf("snapshot/resume lap diverges from uninterrupted run\nwant:\n%s\ngot:\n%s",
			wantStream, combined)
	}
	if !bytes.Equal(secondSnap, wantSnap) {
		t.Error("final snapshot after resume diverges from uninterrupted run")
	}
}

// TestResumedRunDropsCheckpoint resumes a 2-shard run the way RunLocal
// does and checks that, once every replica has restored, neither end holds
// the checkpoint blob: not the coordinator's hello template, and not a
// worker's hello, whose blob is a window into the whole hello payload.
func TestResumedRunDropsCheckpoint(t *testing.T) {
	cfg := Config{
		Source: testSource,
		Seed:   7, SeedSet: true,
		Rounds: 10, RoundsSet: true,
		Threads:  1,
		SnapPath: filepath.Join(t.TempDir(), "ck.sosnap"),
	}
	distRun(t, cfg, 2)
	cfg.Rounds, cfg.ResumePath, cfg.SnapPath = 30, cfg.SnapPath, ""
	cfg.Shards = 2
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.hello.Snapshot) == 0 {
		t.Fatal("the coordinator holds no checkpoint to send")
	}
	conns := make([]Conn, cfg.Shards)
	workers := make([]*workerRun, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range conns {
		co, wk := net.Pipe()
		conns[i] = co
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.Close()
			if workers[i], errs[i] = workerHandshake(wk, 1, ""); errs[i] == nil {
				errs[i] = workers[i].run()
			}
		}()
	}
	if err := c.Run(conns); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c.System().Round() != 30 {
		t.Fatalf("the resumed run ended at round %d, want 30", c.System().Round())
	}
	if c.hello.Snapshot != nil {
		t.Errorf("the coordinator still holds the %d-byte checkpoint", len(c.hello.Snapshot))
	}
	for i, w := range workers {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if w.h.Snapshot != nil {
			t.Errorf("worker %d still holds the %d-byte checkpoint", i, len(w.h.Snapshot))
		}
	}
}

// TestPlaydemoGolden replays the committed golden fixture through a
// 2-shard run — the in-process twin of the CI dist-equivalence gate.
func TestPlaydemoGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is the long way around; CI runs the full gate")
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "playdemo.sos"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "playdemo.events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := distRun(t, Config{Source: string(src), Threads: 1}, 2)
	if !bytes.Equal(stream, want) {
		t.Error("2-shard playdemo stream diverges from testdata/golden/playdemo.events.jsonl")
	}
}

// TestRunClosesConnsOnMiscount hands a 3-shard coordinator two pipes: Run
// must refuse, and still close what it was given, so both workers parked
// on their hello read return instead of waiting forever.
func TestRunClosesConnsOnMiscount(t *testing.T) {
	c, err := NewCoordinator(Config{Source: testSource, Shards: 3, Rounds: 3, RoundsSet: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]Conn, 2)
	workerErrs := make(chan error, len(conns))
	for i := range conns {
		co, wk := net.Pipe()
		conns[i] = co
		go func() { workerErrs <- RunWorker(wk, 1, "") }()
	}
	if err := within(t, "coordinator run", func() error { return c.Run(conns) }); err == nil {
		t.Fatal("Run accepted 2 connections for 3 shards")
	}
	for range conns {
		if err := within(t, "worker", func() error { return <-workerErrs }); err == nil {
			t.Error("worker returned nil from a run that never started")
		}
	}
}

// TestShardRange pins the partition arithmetic: contiguous, covering, and
// balanced within one slot.
func TestShardRange(t *testing.T) {
	for _, size := range []int{0, 1, 5, 96, 97, 1000} {
		for _, n := range []int{1, 2, 3, 4, 7} {
			prev := 0
			for k := 0; k < n; k++ {
				lo, hi := shardRange(size, k, n)
				if lo != prev {
					t.Fatalf("size=%d n=%d: shard %d starts at %d, want %d", size, n, k, lo, prev)
				}
				if hi < lo {
					t.Fatalf("size=%d n=%d: shard %d is [%d,%d)", size, n, k, lo, hi)
				}
				prev = hi
			}
			if prev != size {
				t.Fatalf("size=%d n=%d: shards cover [0,%d), want [0,%d)", size, n, prev, size)
			}
		}
	}
}

// TestThreadsRule: `sos dist -workers 0` hands dist Threads -1, and the
// replica shards its rounds across GOMAXPROCS workers; Threads 0 runs
// serially.
func TestThreadsRule(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, tc := range []struct{ threads, want int }{
		{-1, runtime.GOMAXPROCS(0)},
		{0, 1},
	} {
		c, err := NewCoordinator(Config{Source: testSource, Shards: 1, Threads: tc.threads})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.System().Engine().Workers(); got != tc.want {
			t.Errorf("Threads %d: replica runs %d workers, want %d", tc.threads, got, tc.want)
		}
	}
}

// TestHelloRoundTrip: decodeHello returns every field encodeHello was
// given, the seed's presence included, and the rest of the payload as the
// checkpoint blob.
func TestHelloRoundTrip(t *testing.T) {
	seed := int64(-7)
	zero := int64(0)
	for _, want := range []hello{
		{Run: sosf.RunSpec{Source: testSource}, Shards: 1, TotalRounds: 3},
		{Run: sosf.RunSpec{Source: testSource, Seed: &zero}, Shards: 1},
		{Run: sosf.RunSpec{Source: "x", Nodes: 40, Seed: &seed, Churn: 0.25, Loss: 0.125},
			Shard: 2, Shards: 3, StartRound: 75, TotalRounds: 120, Snapshot: []byte("checkpoint blob")},
	} {
		got, err := decodeHello(encodeHello(&want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !bytes.Equal(got.Snapshot, want.Snapshot) {
			t.Errorf("snapshot %q, want %q", got.Snapshot, want.Snapshot)
		}
		got.Snapshot, want.Snapshot = nil, nil
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("decoded %+v, want %+v", *got, want)
		}
	}
}

// TestAggregateSplicedInPlace assembles an aggregate the way the
// coordinator does — plans payloads read behind the head and spliced in
// place — and requires every shard's meter and records back from it, and a
// cut aggregate to fail as corrupt instead of reading past its end.
func TestAggregateSplicedInPlace(t *testing.T) {
	plans := func(round, pi, shard int, meter int64, records []byte) []byte {
		var w snap.Writer
		w.Header("dist-plans")
		w.Int(round)
		w.Int(pi)
		w.Int(shard)
		w.Varint(meter)
		return append(w.Encoded(), records...)
	}
	want := []plansMsg{
		{Records: bytes.Repeat([]byte{7}, 300), Meter: -5},
		{Records: nil, Meter: 1 << 40},
		{Records: []byte("tail"), Meter: 0},
	}
	agg := appendAggregateHead(nil, 3, 1, len(want))
	for i, w := range want {
		start := len(agg)
		agg = append(agg, plans(3, 1, i, w.Meter, w.Records)...)
		m, err := decodePlans(agg[start:])
		if err != nil {
			t.Fatal(err)
		}
		if m.Shard != i || m.Meter != w.Meter || !bytes.Equal(m.Records, w.Records) {
			t.Fatalf("shard %d decoded as %+v", i, m)
		}
		agg = spliceShard(agg, start, m)
	}
	round, pi, got, err := decodeAggregate(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if round != 3 || pi != 1 || len(got) != len(want) {
		t.Fatalf("aggregate for round %d protocol %d over %d shards", round, pi, len(got))
	}
	for i := range want {
		if got[i].Meter != want[i].Meter || !bytes.Equal(got[i].Records, want[i].Records) {
			t.Errorf("shard %d: meter %d records %q, want meter %d records %q",
				i, got[i].Meter, got[i].Records, want[i].Meter, want[i].Records)
		}
	}
	if _, _, _, err := decodeAggregate(agg[:len(agg)-1], nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("cut aggregate: err %v, want snap.ErrCorrupt", err)
	}
}

// TestTruncatedPlansAreCorrupt cuts a real plans payload of every routing
// protocol at every byte: decoding it and importing its records must fail
// as snap.ErrCorrupt, never panic.
func TestTruncatedPlansAreCorrupt(t *testing.T) {
	sys, err := buildReplica(&hello{Run: sosf.RunSpec{Source: testSource}, Shards: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.Engine()
	round := sys.Round()
	payloads := map[int][]byte{}
	_, err = sys.DistRound(0, sys.Size(), func(pi int, _ sim.PlanCodec, shard []int) error {
		var w snap.Writer
		appendPlans(&w, eng, round, pi, 0, shard[:min(len(shard), 8)])
		payloads[pi] = w.Encoded()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) == 0 {
		t.Fatal("no routing protocol reached its barrier")
	}
	var r snap.Reader
	for pi, p := range payloads {
		for cut := 0; cut <= len(p); cut++ {
			m, err := decodePlans(p[:cut])
			if err == nil {
				err = importShards(eng, &r, round, pi, []plansMsg{m}, -1)
			}
			if cut == len(p) {
				if err != nil {
					t.Fatalf("protocol %d: the whole payload: %v", pi, err)
				}
			} else if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("protocol %d: payload cut at %d of %d: err = %v, want snap.ErrCorrupt", pi, cut, len(p), err)
			}
		}
	}
}

// TestBarrierPayloadsAllocationFree runs a barrier's payload path for
// every routing protocol — plans encoded into a reused buffer, decoded,
// spliced into an aggregate, and the aggregate decoded and imported
// through a reused Reader — and requires it warm to allocate nothing.
func TestBarrierPayloadsAllocationFree(t *testing.T) {
	sys, err := buildReplica(&hello{Run: sosf.RunSpec{Source: testSource}, Shards: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.Engine()
	round := sys.Round()
	var (
		w           snap.Writer
		r           snap.Reader
		shards      []plansMsg
		plans, agg  []byte
		barrierErr  error
		protocolsIn int
	)
	_, err = sys.DistRound(0, sys.Size(), func(pi int, _ sim.PlanCodec, shard []int) error {
		protocolsIn++
		allocs := testing.AllocsPerRun(10, func() {
			w.Reset(plans[:0])
			appendPlans(&w, eng, round, pi, 0, shard)
			plans = w.Encoded()
			m, err := decodePlans(plans)
			if err != nil {
				barrierErr = err
				return
			}
			agg = appendAggregateHead(agg[:0], round, pi, 1)
			start := len(agg)
			agg = spliceShard(append(agg, plans...), start, m)
			if _, _, shards, err = decodeAggregate(agg, shards); err != nil {
				barrierErr = err
				return
			}
			barrierErr = importShards(eng, &r, round, pi, shards, -1)
		})
		if allocs != 0 {
			t.Errorf("protocol %d: a warm barrier's payloads cost %v allocs, want 0", pi, allocs)
		}
		return barrierErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if protocolsIn == 0 {
		t.Fatal("no routing protocol reached its barrier")
	}
}
