package dist

// Fault-injection tests for the barrier protocol: every failure mode must
// surface as a named error within one barrier — never a hang. Each test
// runs its protocol exchange under faultTimeout so a regression fails the
// test instead of wedging the suite.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sosf"
	"sosf/internal/sim"
	"sosf/internal/snap"
)

const faultTimeout = 60 * time.Second

// within fails the test unless fn returns before faultTimeout — the
// "never a hang" half of every fault contract.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(faultTimeout):
		t.Fatalf("%s: still blocked after %v (protocol hang)", what, faultTimeout)
		return nil
	}
}

// TestWorkerRejectsTopologyMismatch launches a worker holding a local DSL
// file that differs from the run the coordinator ships.
func TestWorkerRejectsTopologyMismatch(t *testing.T) {
	c, err := NewCoordinator(Config{Source: testSource, Shards: 1, Rounds: 3, RoundsSet: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	co, wk := net.Pipe()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(wk, 1, testSource+"\n# drifted local copy\n")
	}()
	coordErr := within(t, "coordinator run", func() error { return c.Run([]Conn{co}) })
	if err := <-workerErr; !errors.Is(err, ErrTopologyMismatch) {
		t.Errorf("worker error = %v, want ErrTopologyMismatch", err)
	}
	if !errors.Is(coordErr, ErrPeerFault) {
		t.Errorf("coordinator error = %v, want ErrPeerFault carrying the worker's report", coordErr)
	}
}

// TestWorkerSurfacesTruncatedFrame cuts the connection mid-frame: header
// promising a payload that never arrives.
func TestWorkerSurfacesTruncatedFrame(t *testing.T) {
	co, wk := net.Pipe()
	go func() {
		hdr := make([]byte, 9)
		hdr[0] = fkHello
		binary.LittleEndian.PutUint32(hdr[1:5], 100) // 100 payload bytes, never sent
		co.Write(hdr)
		co.Close()
	}()
	err := within(t, "worker handshake", func() error { return RunWorker(wk, 1, "") })
	if !errors.Is(err, snap.ErrFrameTruncated) {
		t.Fatalf("worker error = %v, want snap.ErrFrameTruncated", err)
	}
}

// TestWorkerSurfacesChecksumMismatch flips one payload bit in an otherwise
// valid hello frame.
func TestWorkerSurfacesChecksumMismatch(t *testing.T) {
	h := &hello{Run: sosf.RunSpec{Source: testSource}, Shards: 1, TotalRounds: 3}
	var frame bytes.Buffer
	if err := snap.WriteFrame(&frame, fkHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	raw[len(raw)-1] ^= 0x40 // corrupt the payload, not the header
	co, wk := net.Pipe()
	go func() {
		co.Write(raw)
		co.Close()
	}()
	err := within(t, "worker handshake", func() error { return RunWorker(wk, 1, "") })
	if !errors.Is(err, snap.ErrFrameChecksum) {
		t.Fatalf("worker error = %v, want snap.ErrFrameChecksum", err)
	}
}

// TestCoordinatorSurvivesWorkerDeathMidRun kills one of two workers right
// after its handshake; the coordinator must name the dead shard within the
// first barrier, and the surviving worker must fail with the relayed fault
// instead of hanging.
func TestCoordinatorSurvivesWorkerDeathMidRun(t *testing.T) {
	c, err := NewCoordinator(Config{Source: testSource, Shards: 2, Rounds: 10, RoundsSet: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	co0, wk0 := net.Pipe()
	co1, wk1 := net.Pipe()
	surviving := make(chan error, 1)
	go func() { surviving <- RunWorker(wk0, 1, "") }()
	go func() {
		// Shard 1 handshakes by the book, then dies before planning.
		if kind, _, err := snap.ReadFrame(wk1); err == nil && kind == fkHello {
			_ = snap.WriteFrame(wk1, fkHelloAck, encodeAck(1))
		}
		wk1.Close()
	}()
	coordErr := within(t, "coordinator run", func() error { return c.Run([]Conn{co0, co1}) })
	if !errors.Is(coordErr, ErrWorkerDead) {
		t.Errorf("coordinator error = %v, want ErrWorkerDead", coordErr)
	}
	if coordErr == nil || !bytes.Contains([]byte(coordErr.Error()), []byte("shard 1/2")) {
		t.Errorf("coordinator error %q does not name the dead shard", coordErr)
	}
	err = within(t, "surviving worker", func() error { return <-surviving })
	if err == nil {
		t.Error("surviving worker returned nil, want the relayed fault or a closed stream")
	}
}

// TestHellosPrecedeAcks has each worker's first write, its ack, wait until
// every worker has reached it, that is until every hello has arrived. The
// run finishes only if the coordinator writes all hellos before it awaits
// the first ack, so the replicas build at once.
func TestHellosPrecedeAcks(t *testing.T) {
	const shards = 2
	cfg := Config{Source: testSource, Shards: shards, Rounds: 5, RoundsSet: true, Threads: 1}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(shards)
	conns := make([]Conn, shards)
	workerErrs := make(chan error, shards)
	for i := range conns {
		co, wk := net.Pipe()
		conns[i] = co
		go func() { workerErrs <- RunWorker(&ackGate{Conn: wk, arrived: &arrived}, 1, "") }()
	}
	if err := within(t, "coordinator run", func() error { return c.Run(conns) }); err != nil {
		t.Fatal(err)
	}
	for range conns {
		if err := within(t, "worker", func() error { return <-workerErrs }); err != nil {
			t.Error(err)
		}
	}
}

// ackGate holds a worker's first write until every worker of the run has
// reached its own.
type ackGate struct {
	Conn
	once    sync.Once
	arrived *sync.WaitGroup
}

func (g *ackGate) Write(p []byte) (int, error) {
	g.once.Do(func() {
		g.arrived.Done()
		g.arrived.Wait()
	})
	return g.Conn.Write(p)
}

// TestCorruptPlansFailEveryEnd has shard 1 of 2 send a plans frame whose
// fields are valid and whose records are corrupt. The coordinator relays
// it in the aggregate, then fails to import it, and so does the worker of
// shard 0 — each writing its fault report to the other over a pipe that
// neither reads. Every end must still return a named error, well within
// faultTimeout.
func TestCorruptPlansFailEveryEnd(t *testing.T) {
	c, err := NewCoordinator(Config{Source: testSource, Shards: 2, Rounds: 10, RoundsSet: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	co0, wk0 := net.Pipe()
	co1, wk1 := net.Pipe()
	worker := make(chan error, 1)
	go func() { worker <- RunWorker(wk0, 1, "") }()
	corrupt := make(chan error, 1)
	go func() { corrupt <- corruptPlansWorker(wk1) }()

	start := time.Now()
	coordErr := within(t, "coordinator run", func() error { return c.Run([]Conn{co0, co1}) })
	workerErr := within(t, "worker of shard 0", func() error { return <-worker })
	corruptErr := within(t, "corrupt worker", func() error { return <-corrupt })
	if !errors.Is(coordErr, sim.ErrBadPlan) || !errors.Is(coordErr, snap.ErrCorrupt) {
		t.Errorf("coordinator error = %v, want ErrBadPlan wrapping snap.ErrCorrupt", coordErr)
	}
	if !errors.Is(workerErr, sim.ErrBadPlan) && !errors.Is(workerErr, ErrPeerFault) {
		t.Errorf("worker error = %v, want ErrBadPlan or ErrPeerFault", workerErr)
	}
	if !errors.Is(corruptErr, ErrPeerFault) {
		t.Errorf("corrupt worker error = %v, want the coordinator's fault report", corruptErr)
	}
	if took := time.Since(start); took > faultWait+faultTimeout/4 {
		t.Errorf("the run took %v to fail", took)
	}
}

// corruptPlansWorker handshakes and builds its replica like a real worker
// of shard 1, then answers the first barrier with records that claim three
// records and hold none. It returns the error the next frame brings.
func corruptPlansWorker(conn Conn) error {
	defer conn.Close()
	kind, payload, err := snap.ReadFrame(conn)
	if err != nil || kind != fkHello {
		return fmt.Errorf("hello: kind %d, %v", kind, err)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	sys, err := buildReplica(h, 1)
	if err != nil {
		return err
	}
	if err := snap.WriteFrame(conn, fkHelloAck, encodeAck(h.Shard)); err != nil {
		return err
	}
	lo, hi := shardRange(sys.Size(), h.Shard, h.Shards)
	_, err = sys.DistRound(lo, hi, func(pi int, _ sim.PlanCodec, _ []int) error {
		var w snap.Writer
		w.Header("dist-plans")
		w.Int(sys.Round())
		w.Int(pi)
		w.Int(h.Shard)
		w.Varint(0)
		w.Len(3)
		if err := snap.WriteFrame(conn, fkPlans, w.Encoded()); err != nil {
			return err
		}
		if kind, _, err := snap.ReadFrame(conn); err != nil || kind != fkAggregate {
			return fmt.Errorf("aggregate: kind %d, %v", kind, err)
		}
		kind, payload, err := snap.ReadFrame(conn)
		if err != nil {
			return err
		}
		if kind == fkFault {
			return faultError(payload)
		}
		return fmt.Errorf("frame kind %d after a corrupt barrier", kind)
	})
	return err
}
