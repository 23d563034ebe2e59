package dist

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"sosf/internal/snap"
)

// Conn is one coordinator↔worker byte stream. Frames (internal/snap) are
// the only thing written to it, so any io.ReadWriteCloser works; RunLocal
// and the tests hand in the two ends of an in-process net.Pipe.
type Conn = io.ReadWriteCloser

// wireVersion is the barrier-protocol version, independent of the snapshot
// format version (which snap.Header checks underneath). Bump it for any
// change to the frame sequence or payload layouts.
const wireVersion = 6

// Frame kinds of the barrier protocol, in lifecycle order.
const (
	fkHello     = 1 // coordinator → worker: config, source, shard, snapshot
	fkHelloAck  = 2 // worker → coordinator: version + digest echo
	fkPlans     = 3 // worker → coordinator: one shard's plan records
	fkAggregate = 4 // coordinator → workers: all shards' plan records
	fkFault     = 5 // either direction: error text, run aborted
)

// Named errors of the distributed protocol; match with errors.Is. Frame
// integrity errors (snap.ErrFrameTruncated, snap.ErrFrameChecksum) bubble
// up from the frame layer unchanged.
var (
	// ErrVersionMismatch marks a handshake between incompatible builds.
	ErrVersionMismatch = errors.New("dist: protocol version mismatch")
	// ErrTopologyMismatch marks a worker whose local DSL file disagrees
	// with the run the coordinator is sharding.
	ErrTopologyMismatch = errors.New("dist: topology digest mismatch")
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
// build a replica indistinguishable from the coordinator's own — source,
// behavior configuration, shard assignment, round window, and (resumed
// runs) the checkpoint blob to restore.
type hello struct {
	Seed        int64
	SeedSet     bool
	Nodes       int
	Loss        float64
	Churn       float64
	Shard       int
	Shards      int
	StartRound  int
	TotalRounds int
	Source      string
	Snapshot    []byte
}

// digest fingerprints the run a hello describes: the DSL source plus every
// behavior field that shapes the simulation. A worker given a local DSL
// file recomputes the digest with its own source to catch a file that
// drifted from the coordinator's; the ack echoes it so the coordinator
// verifies the worker agreed to this run and not a stale one. Shard
// assignment and the snapshot blob stay out — they vary per worker and per
// resume without changing which run this is.
func (h *hello) digest() uint64 {
	f := fnv.New64a()
	sw := snap.NewWriter(f)
	sw.String(h.Source)
	sw.I64(h.Seed)
	sw.Bool(h.SeedSet)
	sw.Int(h.Nodes)
	sw.F64(h.Loss)
	sw.F64(h.Churn)
	sw.Int(h.Shards)
	sw.Int(h.StartRound)
	sw.Int(h.TotalRounds)
	return f.Sum64()
}

func encodeHello(h *hello) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Header("dist-hello")
	w.U16(wireVersion)
	w.I64(h.Seed)
	w.Bool(h.SeedSet)
	w.Int(h.Nodes)
	w.F64(h.Loss)
	w.F64(h.Churn)
	w.Int(h.Shard)
	w.Int(h.Shards)
	w.Int(h.StartRound)
	w.Int(h.TotalRounds)
	w.String(h.Source)
	w.U64(h.digest())
	writeBlob(w, h.Snapshot)
	return buf.Bytes()
}

// decodeHello parses a hello payload, returning the message and the digest
// the coordinator computed (for the worker's own verification).
func decodeHello(p []byte) (*hello, uint64, error) {
	r := snap.NewReader(bytes.NewReader(p))
	r.Header("dist-hello")
	if v := r.U16(); r.Err() == nil && v != wireVersion {
		return nil, 0, fmt.Errorf("%w: coordinator speaks v%d, this build v%d", ErrVersionMismatch, v, wireVersion)
	}
	h := &hello{
		Seed:        r.I64(),
		SeedSet:     r.Bool(),
		Nodes:       r.Int(),
		Loss:        r.F64(),
		Churn:       r.F64(),
		Shard:       r.Int(),
		Shards:      r.Int(),
		StartRound:  r.Int(),
		TotalRounds: r.Int(),
		Source:      r.String(),
	}
	digest := r.U64()
	h.Snapshot = readBlob(r)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return h, digest, nil
}

func encodeAck(digest uint64, shard int) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Header("dist-ack")
	w.U16(wireVersion)
	w.U64(digest)
	w.Int(shard)
	return buf.Bytes()
}

func decodeAck(p []byte) (digest uint64, shard int, err error) {
	r := snap.NewReader(bytes.NewReader(p))
	r.Header("dist-ack")
	if v := r.U16(); r.Err() == nil && v != wireVersion {
		return 0, 0, fmt.Errorf("%w: worker speaks v%d, this build v%d", ErrVersionMismatch, v, wireVersion)
	}
	digest = r.U64()
	shard = r.Int()
	r.ExpectEOF()
	return digest, shard, r.Err()
}

// plansMsg is one worker's contribution to one barrier: the encoded plan
// records of its shard for protocol pi, plus the Plan-phase meter delta
// those plans put on the simulated wire.
type plansMsg struct {
	Round   int
	PI      int
	Shard   int
	Records []byte
	Meter   int64
}

func encodePlans(m *plansMsg) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Header("dist-plans")
	w.Int(m.Round)
	w.Int(m.PI)
	w.Int(m.Shard)
	writeBlob(w, m.Records)
	w.Varint(m.Meter)
	return buf.Bytes()
}

func decodePlans(p []byte) (*plansMsg, error) {
	r := snap.NewReader(bytes.NewReader(p))
	r.Header("dist-plans")
	m := &plansMsg{
		Round: r.Int(),
		PI:    r.Int(),
		Shard: r.Int(),
	}
	m.Records = readBlob(r)
	m.Meter = r.Varint()
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeAggregate bundles every shard's (records, meter) pair for one
// barrier. Receivers skip their own shard — they planned it themselves.
func encodeAggregate(round, pi int, shards []plansMsg) []byte {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	w.Header("dist-agg")
	w.Int(round)
	w.Int(pi)
	w.Len(len(shards))
	for i := range shards {
		writeBlob(w, shards[i].Records)
		w.Varint(shards[i].Meter)
	}
	return buf.Bytes()
}

func decodeAggregate(p []byte) (round, pi int, shards []plansMsg, err error) {
	r := snap.NewReader(bytes.NewReader(p))
	r.Header("dist-agg")
	round = r.Int()
	pi = r.Int()
	n := r.Len()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	shards = make([]plansMsg, n)
	for i := 0; i < n; i++ {
		shards[i].Records = readBlob(r)
		shards[i].Meter = r.Varint()
		if err := r.Err(); err != nil {
			return 0, 0, nil, err
		}
	}
	r.ExpectEOF()
	return round, pi, shards, r.Err()
}

// blobChunk splits large byte fields across snap's per-field sanity bound
// (64 MiB): a resumed run's snapshot blob or a huge shard's plan records
// must not be rejected by the codec that moves them.
const blobChunk = 32 << 20

// writeBlob writes an arbitrarily large byte blob as a chunk sequence.
func writeBlob(w *snap.Writer, p []byte) {
	n := (len(p) + blobChunk - 1) / blobChunk
	w.Len(n)
	for len(p) > blobChunk {
		w.Bytes(p[:blobChunk])
		p = p[blobChunk:]
	}
	if n > 0 {
		w.Bytes(p)
	}
}

// readBlob reads a writeBlob chunk sequence back into one slice.
func readBlob(r *snap.Reader) []byte {
	n := r.Len()
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := r.Bytes()
	for i := 1; i < n && r.Err() == nil; i++ {
		out = append(out, r.Bytes()...)
	}
	return out
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
