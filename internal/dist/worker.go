package dist

import (
	"fmt"

	"sosf"
	"sosf/internal/sim"
	"sosf/internal/snap"
)

// shardRange is worker k's contiguous slot shard out of n over the current
// slot-space size: [k·size/n, (k+1)·size/n). Recomputed from the replicated
// size every round, so the partition rebalances under churn and joins with
// no coordination.
func shardRange(size, k, n int) (lo, hi int) {
	return k * size / n, (k + 1) * size / n
}

// workerRun is one worker's state: its replica, its connection to the
// coordinator, and the hello that configured both.
type workerRun struct {
	conn Conn
	sys  *sosf.System
	h    *hello
	// Every barrier of the run reuses these: buf holds the outgoing plans
	// (encoded by enc), then the incoming aggregate (decoded into shards
	// and by dec).
	buf    []byte
	enc    snap.Writer
	shards []plansMsg
	dec    snap.Reader
}

// RunWorker executes one worker over an established coordinator
// connection: handshake, replica build (and restore, for resumed runs),
// then the round loop planning this worker's shard. localSource, when
// non-empty, is a DSL source the caller expects the run to be of; it must
// match the hello's or the handshake fails with ErrTopologyMismatch (the
// empty string, which is all RunLocal passes, trusts the coordinator's
// source outright). threads shards this replica's phases across OS
// threads under Config.Threads' rule, invisible in the output.
// RunWorker closes the connection in every case; on a local failure it
// best-effort reports the cause to the coordinator first, so the run fails
// with a named error on both ends.
func RunWorker(conn Conn, threads int, localSource string) error {
	defer conn.Close()
	w, err := workerHandshake(conn, threads, localSource)
	if err != nil {
		sendFault(conn, err)
		return err
	}
	n, k := w.h.Shards, w.h.Shard
	for r := w.h.StartRound; r < w.h.TotalRounds; r++ {
		lo, hi := shardRange(w.sys.Size(), k, n)
		if _, err := w.sys.DistRound(lo, hi, w.exchange); err != nil {
			sendFault(conn, err)
			return err
		}
	}
	return nil
}

// workerHandshake reads the hello, verifies it, builds the replica, and
// acks.
func workerHandshake(conn Conn, threads int, localSource string) (*workerRun, error) {
	kind, payload, err := snap.ReadFrame(conn, 0)
	if err != nil {
		return nil, fmt.Errorf("dist: reading hello: %w", err)
	}
	if kind == fkFault {
		return nil, faultError(payload)
	}
	if kind != fkHello {
		return nil, fmt.Errorf("%w: opening frame kind %d, want hello", ErrProtocol, kind)
	}
	h, digest, err := decodeHello(payload)
	if err != nil {
		return nil, err
	}
	if got := h.digest(); got != digest {
		return nil, fmt.Errorf("%w: hello digest %#x, recomputed %#x", ErrTopologyMismatch, digest, got)
	}
	if localSource != "" && localSource != h.Source {
		local := *h
		local.Source = localSource
		return nil, fmt.Errorf("%w: local file digest %#x, coordinator runs %#x",
			ErrTopologyMismatch, local.digest(), digest)
	}
	if h.Shard < 0 || h.Shards < 1 || h.Shard >= h.Shards {
		return nil, fmt.Errorf("%w: hello assigns shard %d/%d", ErrProtocol, h.Shard, h.Shards)
	}
	sys, err := buildReplica(h, threads)
	if err != nil {
		return nil, err
	}
	if sys.Round() != h.StartRound {
		return nil, fmt.Errorf("%w: replica starts at round %d, hello says %d",
			ErrProtocol, sys.Round(), h.StartRound)
	}
	if err := snap.WriteFrame(conn, fkHelloAck, encodeAck(digest, h.Shard)); err != nil {
		return nil, fmt.Errorf("dist: sending ack: %w", err)
	}
	return &workerRun{conn: conn, sys: sys, h: h}, nil
}

// exchange is the worker's side of one barrier: encode and send the local
// shard's plan records with their meter delta, await the coordinator's
// aggregate, and import every other shard's records into the replica.
func (w *workerRun) exchange(pi int, _ sim.PlanCodec, shard []int) error {
	eng := w.sys.Engine()
	round := w.sys.Round()
	w.enc.Reset(w.buf[:0])
	appendPlans(&w.enc, eng, round, pi, w.h.Shard, shard)
	plans := w.enc.Encoded()
	if err := snap.WriteFrame(w.conn, fkPlans, plans); err != nil {
		return fmt.Errorf("dist: sending plans at round %d barrier %d: %w", round, pi, err)
	}
	kind, payload, err := snap.AppendFrame(plans[:0], w.conn, 0)
	w.buf = payload
	if err != nil {
		return fmt.Errorf("dist: awaiting aggregate at round %d barrier %d: %w", round, pi, err)
	}
	if kind == fkFault {
		return faultError(payload)
	}
	if kind != fkAggregate {
		return fmt.Errorf("%w: frame kind %d at round %d barrier %d, want aggregate", ErrProtocol, kind, round, pi)
	}
	aggRound, aggPI, shards, err := decodeAggregate(payload, w.shards)
	w.shards = shards
	if err != nil {
		return err
	}
	if aggRound != round || aggPI != pi || len(shards) != w.h.Shards {
		return fmt.Errorf("%w: aggregate for round %d protocol %d over %d shards, want round %d protocol %d over %d",
			ErrProtocol, aggRound, aggPI, len(shards), round, pi, w.h.Shards)
	}
	return importShards(eng, &w.dec, round, pi, shards, w.h.Shard)
}
