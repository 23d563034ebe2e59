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

// countedSource wraps the engine's serial random source and counts every
// draw. The count is what makes the source snapshottable: math/rand's
// generator advances exactly one internal step per Int63/Uint64 call, so
// (seed, draw count) fully determines its state, and restore replays the
// count against a fresh source instead of capturing opaque internals.
type countedSource struct {
	src rand.Source64
	n   uint64
}

// newCountedSource seeds a counted source. rand.NewSource's concrete
// generator has implemented Source64 since Go 1.8; the engine relies on
// that so rand.New takes the exact same Uint64 fast path it took before
// the wrapper existed (falling back would change the draw sequence).
func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *countedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *countedSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source.
func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// skip advances the source by n draws (restore's fast-forward). Each draw
// is a few integer operations, so replaying even millions of inter-round
// draws costs milliseconds.
func (s *countedSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.n = n
}

// maxSerialDraws bounds the serial-RNG draw count RestoreState will replay
// (2^44 ≈ 1.8e13 draws — hours of fast-forward, far past any plausible
// run: between-round draws scale with churn and partition activity, not
// raw rounds). Every other field of the format fails fast on corruption;
// without this bound, a corrupted count near 2^64 would make restore spin
// for centuries instead of returning an error.
const maxSerialDraws = 1 << 44

// SnapshotState serializes the engine's complete state — round counter,
// node table, partition and loss state, serial-RNG position, bandwidth
// history, and every protocol's per-slot state — such that RestoreState
// followed by M rounds replays rounds N+1..N+M of the uninterrupted run
// byte for byte, at any worker count. It writes no container header: the
// caller (core.System) owns the stream's header and embeds this body.
// Call it between rounds only (mid-phase state is deliberately not
// serializable).
func (e *Engine) SnapshotState(w *snap.Writer) error {
	w.I64(e.seed)
	w.Uvarint(e.src.n)
	w.Int(e.round)
	w.Varint(int64(e.nextID))
	w.F64(e.lossRate)

	w.Len(len(e.nodes))
	for i := range e.nodes {
		n := &e.nodes[i]
		w.Varint(int64(n.ID))
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

	e.meter.snapshot(w)

	// A body's length prefix comes before its slots, so each body is
	// encoded whole into one window, kept on the engine and reused across
	// protocols and checkpoints.
	w.Len(len(e.protocols))
	body := &e.snapBody
	for _, p := range e.protocols {
		body.Reset(body.Encoded()[:0])
		body.Len(len(e.nodes))
		for slot := range e.nodes {
			p.SnapshotSlot(body, slot)
		}
		w.String(p.Name())
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
	draws := r.Uvarint()
	round := r.Int()
	nextID := r.Varint()
	lossRate := r.F64()
	nodeCount := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if round < 0 || nextID < 0 || nodeCount != int(nextID) {
		return fmt.Errorf("snap: inconsistent engine state (round %d, %d nodes, next ID %d)", round, nodeCount, nextID)
	}
	if draws > maxSerialDraws {
		return fmt.Errorf("snap: serial RNG draw count %d exceeds the %d replay bound (corrupt snapshot?)", draws, uint64(maxSerialDraws))
	}

	// The node table and partition grow as their records arrive: a few
	// bytes that claim a huge count fail at the first missing record
	// instead of reserving memory for the count.
	var nodes []Node
	for slot := 0; slot < nodeCount; slot++ {
		id := r.Varint()
		alive := r.Bool()
		joined := r.Int()
		profile := snap.ReadProfile(r)
		if err := r.Err(); err != nil {
			return err
		}
		if id < 0 || id >= nextID {
			return fmt.Errorf("snap: invalid node ID %d", id)
		}
		nodes = append(nodes, Node{
			Slot:    slot,
			ID:      view.NodeID(id),
			Alive:   alive,
			Joined:  joined,
			Profile: profile,
		})
	}
	slotOfID := make([]int, nodeCount)
	for i := range slotOfID {
		slotOfID[i] = -1
	}
	for slot := range nodes {
		id := nodes[slot].ID
		if slotOfID[id] >= 0 {
			return fmt.Errorf("snap: duplicate node ID %d", id)
		}
		slotOfID[id] = slot
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
	if err := r.Err(); err != nil {
		return err
	}

	// All fixed-size state decoded: commit, then restore the variable
	// sections (meter, protocols) that validate against the stack.
	src := newCountedSource(seed)
	src.skip(draws)
	e.seed = seed
	e.src = src
	e.rng = rand.New(src)
	e.round = round
	e.nextID = view.NodeID(nextID)
	e.lossRate = lossRate
	e.nodes = nodes
	e.slotOfID = slotOfID
	e.partition = partition
	e.aliveOK = false
	e.sizeSlots()

	if err := e.meter.restore(r); err != nil {
		return err
	}

	np := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if np != len(e.protocols) {
		return fmt.Errorf("snap: snapshot has %d protocols, engine has %d", np, len(e.protocols))
	}
	for i, p := range e.protocols {
		name := r.String()
		size := r.Len()
		if err := r.Err(); err != nil {
			return err
		}
		if name != p.Name() {
			return fmt.Errorf("snap: protocol %d is %q in the snapshot but %q in the engine", i, name, p.Name())
		}
		if err := e.restoreBody(p, r, size); err != nil {
			return fmt.Errorf("snap: protocol %q: %w", name, err)
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

// snapshot serializes the meter: protocol names (validated on restore),
// in-flight round counters, and the full per-round history — the history
// keeps resumed runs' bandwidth figures and reports identical to the
// uninterrupted run's.
func (m *Meter) snapshot(w *snap.Writer) {
	w.Len(len(m.names))
	for _, name := range m.names {
		w.String(name)
	}
	for _, c := range m.current {
		w.Varint(c)
	}
	w.Len(len(m.history))
	for _, row := range m.history {
		for _, v := range row {
			w.Varint(v)
		}
	}
}

// restore rebuilds the meter from snapshot, validating that the registered
// protocol set matches.
func (m *Meter) restore(r *snap.Reader) error {
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(m.names) {
		return fmt.Errorf("snap: meter has %d protocols, snapshot has %d", len(m.names), n)
	}
	for i, want := range m.names {
		if got := r.String(); r.Err() == nil && got != want {
			return fmt.Errorf("snap: meter protocol %d is %q in the snapshot but %q in the engine", i, got, want)
		}
	}
	for i := range m.current {
		m.current[i] = r.Varint()
	}
	rounds := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	// The history grows as rows arrive, in the arena blocks a live run
	// would use.
	m.history, m.arena = nil, nil
	row := make([]int64, len(m.names))
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
