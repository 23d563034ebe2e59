package sim

import "sosf/internal/view"

// Stream is a counter-based random stream in the splitmix64 family. One
// Stream is derived per (seed, node, round, protocol, phase) tuple, which is
// what makes intra-round parallelism deterministic: a node's draws depend
// only on that key, never on how slots are sharded across workers or on
// which other node happened to step first. Creating a stream is two dozen
// integer operations, so the engine derives them on the fly for every slot
// of every phase.
//
// The zero value is a valid stream (for the all-zero key); engine code
// always goes through NewStream.
type Stream struct {
	state uint64
}

// mix64 is the splitmix64 finalizer (Stafford variant 13): a bijective
// avalanche over 64 bits. It is both the key mixer and the output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// golden is 2^64 / phi, the splitmix64 sequence increment.
const golden = 0x9e3779b97f4a7c15

// NewStream derives the stream for one node's turn: seed is the engine
// seed, id the node's never-reused identity, round the current round, and
// salt distinguishes the (protocol, phase) pair so stacked protocols do not
// replay each other's draws.
func NewStream(seed int64, id view.NodeID, round int, salt uint64) Stream {
	s := mix64(uint64(seed) ^ golden)
	s = mix64(s ^ uint64(id)*0xff51afd7ed558ccd)
	s = mix64(s ^ uint64(round)*0xc4ceb9fe1a85ec53)
	s = mix64(s ^ salt*golden)
	return Stream{state: s}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0,
// mirroring math/rand. Power-of-two moduli take the fast mask path; other
// moduli use rejection sampling, so the result is exactly uniform.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("sim: Stream.Intn with n <= 0")
	}
	if n&(n-1) == 0 {
		return int(s.Uint64() & uint64(n-1))
	}
	limit := uint64(1)<<63 - 1 - (uint64(1)<<63)%uint64(n)
	v := s.Uint64() >> 1
	for v > limit {
		v = s.Uint64() >> 1
	}
	return int(v % uint64(n))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Shuffle performs a Fisher-Yates shuffle of n elements via swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

var _ view.Rand = (*Stream)(nil)
