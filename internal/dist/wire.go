package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sosf"
	"sosf/internal/sim"
	"sosf/internal/snap"
)

// Conn is one coordinator↔worker byte stream. Frames (internal/snap) are
// the only thing written to it, so any io.ReadWriteCloser works; RunLocal
// and the tests hand in the two ends of an in-process net.Pipe.
type Conn = io.ReadWriteCloser

// Frame kinds of the barrier protocol, in lifecycle order.
const (
	fkHello     = 1 // coordinator → worker: run, shard, round window, snapshot
	fkHelloAck  = 2 // worker → coordinator: replica built, shard index
	fkPlans     = 3 // worker → coordinator: one shard's plan records
	fkAggregate = 4 // coordinator → workers: all shards' plan records
	fkFault     = 5 // either direction: error text, run aborted
)

// Named errors of the distributed protocol; match with errors.Is. Frame
// integrity errors (snap.ErrFrameTruncated, snap.ErrFrameChecksum) bubble
// up from the frame layer unchanged.
var (
	// ErrTopologyMismatch marks a worker whose local DSL source disagrees
	// with the run the coordinator is sharding.
	ErrTopologyMismatch = errors.New("dist: topology mismatch")
	// ErrWorkerDead marks a worker connection that died mid-run; the wrap
	// names the shard.
	ErrWorkerDead = errors.New("dist: worker died")
	// ErrPeerFault marks a peer that reported its own failure (fkFault)
	// before closing; the wrap carries the peer's error text.
	ErrPeerFault = errors.New("dist: peer fault")
	// ErrProtocol marks an out-of-sequence or malformed frame.
	ErrProtocol = errors.New("dist: protocol error")
)

// hello is the coordinator's opening message: everything a worker needs to
// build a replica indistinguishable from the coordinator's own — the run,
// shard assignment, round window, and (resumed runs) the checkpoint blob to
// restore, sent as the rest of the payload.
type hello struct {
	// Run is the run description every replica is built from. Its Rounds
	// stays nil (the window below bounds the run) and its Workers is not
	// sent: each end shards its own replica by its own thread count.
	Run         sosf.RunSpec
	Shard       int
	Shards      int
	StartRound  int
	TotalRounds int
	Snapshot    []byte
}

func encodeHello(h *hello) []byte {
	var w snap.Writer
	w.Header("dist-hello")
	w.String(h.Run.Source)
	w.Int(h.Run.Nodes)
	w.Bool(h.Run.Seed != nil)
	if h.Run.Seed != nil {
		w.I64(*h.Run.Seed)
	}
	w.F64(h.Run.Churn)
	w.F64(h.Run.Loss)
	w.Int(h.Shard)
	w.Int(h.Shards)
	w.Int(h.StartRound)
	w.Int(h.TotalRounds)
	return append(w.Encoded(), h.Snapshot...)
}

func decodeHello(p []byte) (*hello, error) {
	r := snap.NewBytesReader(p)
	r.Header("dist-hello")
	h := &hello{}
	h.Run.Source = r.String()
	h.Run.Nodes = r.Int()
	if r.Bool() {
		seed := r.I64()
		h.Run.Seed = &seed
	}
	h.Run.Churn = r.F64()
	h.Run.Loss = r.F64()
	h.Shard = r.Int()
	h.Shards = r.Int()
	h.StartRound = r.Int()
	h.TotalRounds = r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	h.Snapshot = p[r.Offset():]
	return h, nil
}

func encodeAck(shard int) []byte {
	var w snap.Writer
	w.Header("dist-ack")
	w.Int(shard)
	return w.Encoded()
}

func decodeAck(p []byte) (shard int, err error) {
	r := snap.NewBytesReader(p)
	r.Header("dist-ack")
	shard = r.Int()
	r.ExpectEOF()
	return shard, r.Err()
}

// plansMsg is one worker's contribution to one barrier: the encoded plan
// records of its shard for protocol pi, plus the Plan-phase meter delta
// those plans put on the simulated wire. Decoded, Records is a window into
// the frame payload it came in, valid until that buffer is reused.
type plansMsg struct {
	Round   int
	PI      int
	Shard   int
	Records []byte
	Meter   int64
}

// appendPlans appends a worker's fkPlans payload to w: the barrier's
// fields and meter delta, then the engine's plan-record frame for the
// shard's slots as the rest of the payload, so the records are encoded
// once, in place.
func appendPlans(w *snap.Writer, eng *sim.Engine, round, pi, shard int, slots []int) {
	w.Header("dist-plans")
	w.Int(round)
	w.Int(pi)
	w.Int(shard)
	w.Varint(eng.PlanBytes(pi))
	eng.EncodePlans(pi, w, slots)
}

func decodePlans(p []byte) (plansMsg, error) {
	r := snap.NewBytesReader(p)
	r.Header("dist-plans")
	m := plansMsg{
		Round: r.Int(),
		PI:    r.Int(),
		Shard: r.Int(),
		Meter: r.Varint(),
	}
	if err := r.Err(); err != nil {
		return plansMsg{}, err
	}
	m.Records = p[r.Offset():]
	return m, nil
}

// appendAggregateHead starts an fkAggregate payload for n shards; each
// shard's entry is then spliced in behind it by spliceShard.
func appendAggregateHead(dst []byte, round, pi, n int) []byte {
	var w snap.Writer
	w.Reset(dst)
	w.Header("dist-agg")
	w.Int(round)
	w.Int(pi)
	w.Len(n)
	return w.Encoded()
}

// spliceShard turns the fkPlans payload m was decoded from, p[start:], into
// the aggregate's entry for that shard in place and cuts p behind it: the
// entry's meter and record length overwrite the plans fields (a 21-byte
// header among them, so always longer) and the records move down after.
func spliceShard(p []byte, start int, m plansMsg) []byte {
	var head [2 * binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(binary.AppendVarint(head[:0], m.Meter), uint64(len(m.Records)))
	n := copy(p[start:], h)
	n += copy(p[start+n:], p[len(p)-len(m.Records):])
	return p[:start+n]
}

// decodeAggregate reads every shard's (meter, records) entry of an
// fkAggregate payload into shards[:0]. Each entry's records are a window
// into p. Receivers skip their own shard — they planned it themselves.
func decodeAggregate(p []byte, shards []plansMsg) (round, pi int, _ []plansMsg, err error) {
	r := snap.NewBytesReader(p)
	r.Header("dist-agg")
	round = r.Int()
	pi = r.Int()
	n := r.Len()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	// The list grows as entries arrive: a corrupt count reserves nothing.
	shards = shards[:0]
	for i := 0; i < n; i++ {
		meter := r.Varint()
		size := r.Uvarint()
		if err := r.Err(); err != nil {
			return 0, 0, nil, err
		}
		rest := p[r.Offset():]
		if size > uint64(len(rest)) {
			return 0, 0, nil, fmt.Errorf("%w: shard %d records claim %d bytes, %d left", snap.ErrCorrupt, i, size, len(rest))
		}
		shards = append(shards, plansMsg{Meter: meter, Records: rest[:size]})
		p = rest[size:]
		r.Reset(p)
	}
	r.ExpectEOF()
	return round, pi, shards, r.Err()
}

// faultError turns a received fkFault payload into the named error.
func faultError(payload []byte) error {
	return fmt.Errorf("%w: %s", ErrPeerFault, string(payload))
}

// sendFault best-effort reports a local failure to the peer before the
// connection closes, so the other side fails with the cause instead of a
// bare truncated read.
func sendFault(c Conn, err error) {
	_ = snap.WriteFrame(c, fkFault, []byte(err.Error()))
}
