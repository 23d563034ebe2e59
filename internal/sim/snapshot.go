package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"sosf/internal/snap"
	"sosf/internal/view"
)

// ErrSlotCount is wrapped by the error RestoreState returns when a
// protocol body's slot count differs from the restored node table.
var ErrSlotCount = errors.New("sim: slot count mismatch")

// serialSource is the engine's serial random source: math/rand's
// generator, held as state a checkpoint can write. rand.NewSource is
// additive lagged Fibonacci, each draw y[k] = y[k-607] + y[k-273] mod
// 2^64, so its last 607 draws are its whole state. win[k%607] holds draw
// k (before the first 607 draws are taken, the draws to come), and n
// counts the draws so far; a checkpoint writes both and restore reads them
// back.
type serialSource struct {
	win [607]uint64
	n   uint64
}

// newSerialSource seeds a serial source.
func newSerialSource(seed int64) *serialSource {
	s := &serialSource{}
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: win takes the first 607 draws of
// rand.NewSource(seed), whose generator has implemented Source64 since Go
// 1.8.
func (s *serialSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.win {
		s.win[i] = src.Uint64()
	}
	s.n = 0
}

// Uint64 implements rand.Source64.
func (s *serialSource) Uint64() uint64 {
	i := s.n % 607
	if s.n >= 607 {
		s.win[i] += s.win[(s.n-273)%607]
	}
	s.n++
	return s.win[i]
}

// Int63 implements rand.Source, masking Uint64 exactly as math/rand does.
func (s *serialSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// SnapshotState serializes the engine's complete state — round counter,
// node table, partition and loss state, serial RNG, bandwidth history, and
// every protocol's per-slot state — such that RestoreState followed by M
// rounds replays rounds N+1..N+M of the uninterrupted run byte for byte,
// at any worker count. A node's ID is its slot, so neither is written. It
// writes no container header: the caller (core.System) owns the stream's
// header and embeds this body. Call it between rounds only (mid-phase
// state is deliberately not serializable).
func (e *Engine) SnapshotState(w *snap.Writer) error {
	w.I64(e.seed)
	w.Uvarint(e.src.n)
	for _, v := range e.src.win {
		w.U64(v)
	}
	w.Int(e.round)
	w.F64(e.lossRate)

	w.Len(len(e.nodes))
	for i := range e.nodes {
		n := &e.nodes[i]
		w.Bool(n.Alive)
		w.Int(n.Joined)
		snap.WriteProfile(w, n.Profile)
	}

	w.Bool(e.partition != nil)
	if e.partition != nil {
		w.Len(len(e.partition))
		for _, g := range e.partition {
			w.Int(g)
		}
	}

	w.Len(len(e.protocols))
	for _, p := range e.protocols {
		w.String(p.Name())
	}
	e.meter.snapshot(w)

	// A body's length prefix comes before its slots, so each body is
	// encoded whole into one window, kept on the engine and reused across
	// protocols and checkpoints.
	body := &e.snapBody
	for _, p := range e.protocols {
		body.Reset(body.Encoded()[:0])
		body.Len(len(e.nodes))
		for slot := range e.nodes {
			p.SnapshotSlot(body, slot)
		}
		w.Bytes(body.Encoded())
	}
	return w.Err()
}

// RestoreState reads the engine body written by SnapshotState. The engine
// must carry the same registered protocol stack (same names, same order)
// as the one snapshotted; everything else — population, round, RNG
// position — is replaced by the snapshot's state. Worker configuration is
// untouched: resuming with a different worker count yields the same
// results.
func (e *Engine) RestoreState(r *snap.Reader) error {
	seed := r.I64()
	src := &serialSource{n: r.Uvarint()}
	for i := range src.win {
		src.win[i] = r.U64()
	}
	round := r.Int()
	lossRate := r.F64()
	nodeCount := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if round < 0 {
		return fmt.Errorf("snap: negative round %d", round)
	}

	// The node table and partition grow as their records arrive: a few
	// bytes that claim a huge count fail at the first missing record
	// instead of reserving memory for the count.
	var nodes []Node
	for slot := 0; slot < nodeCount; slot++ {
		alive := r.Bool()
		joined := r.Int()
		profile := snap.ReadProfile(r)
		if err := r.Err(); err != nil {
			return err
		}
		nodes = append(nodes, Node{
			Slot:    slot,
			ID:      view.NodeID(slot),
			Alive:   alive,
			Joined:  joined,
			Profile: profile,
		})
	}

	var partition []int
	if r.Bool() {
		n := r.Len()
		if err := r.Err(); err != nil {
			return err
		}
		partition = []int{}
		for i := 0; i < n; i++ {
			g := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			partition = append(partition, g)
		}
	}

	np := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if np != len(e.protocols) {
		return fmt.Errorf("snap: snapshot has %d protocols, engine has %d", np, len(e.protocols))
	}
	for i, p := range e.protocols {
		if name := r.String(); r.Err() == nil && name != p.Name() {
			return fmt.Errorf("snap: protocol %d is %q in the snapshot but %q in the engine", i, name, p.Name())
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	// All fixed-size state decoded and the stack checked: commit, then
	// restore the variable sections (meter, protocol bodies).
	e.seed = seed
	e.src = src
	e.rng = rand.New(src)
	e.round = round
	e.lossRate = lossRate
	e.nodes = nodes
	e.partition = partition
	e.aliveOK = false
	e.sizeSlots()

	if err := e.meter.restore(r); err != nil {
		return err
	}
	for _, p := range e.protocols {
		size := r.Len()
		if err := r.Err(); err != nil {
			return err
		}
		if err := e.restoreBody(p, r, size); err != nil {
			return fmt.Errorf("snap: protocol %q: %w", p.Name(), err)
		}
	}
	return r.Err()
}

// restoreBody restores protocol p from its size-byte snapshot body, read
// in place from r: the slot count, which must equal the restored node
// table's, then one record per slot, which must end exactly at the body's
// end.
func (e *Engine) restoreBody(p Protocol, r *snap.Reader, size int) error {
	start := r.Offset()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(e.nodes) {
		return fmt.Errorf("%w: snapshot covers %d slots, engine has %d", ErrSlotCount, n, len(e.nodes))
	}
	for slot := 0; slot < n; slot++ {
		if err := p.RestoreSlot(r, slot); err != nil {
			return err
		}
		if err := r.Err(); err != nil {
			return err
		}
	}
	if got := r.Offset() - start; got != size {
		return fmt.Errorf("%w: the slots take %d bytes of a %d-byte body", snap.ErrCorrupt, got, size)
	}
	return nil
}

// snapshot serializes the meter's per-round history, which keeps resumed
// runs' bandwidth figures and reports identical to the uninterrupted
// run's. The protocol names are the engine's to write, and the in-flight
// counters are zero between rounds.
func (m *Meter) snapshot(w *snap.Writer) {
	w.Len(len(m.history))
	for _, row := range m.history {
		for _, v := range row {
			w.Varint(v)
		}
	}
}

// restore rebuilds the meter's history from snapshot, one row per round as
// wide as the registered protocol set.
func (m *Meter) restore(r *snap.Reader) error {
	rounds := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	// The history grows as rows arrive, in the arena blocks a live run
	// would use.
	m.history, m.arena = nil, nil
	row := make([]int64, len(m.current))
	for i := 0; i < rounds; i++ {
		for j := range row {
			row[j] = r.Varint()
		}
		if err := r.Err(); err != nil {
			return err
		}
		m.appendRow(row)
	}
	return nil
}
