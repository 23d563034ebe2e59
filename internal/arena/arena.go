// Package arena provides chunked slice arenas: many small fixed-capacity
// buffers carved back-to-back out of a few large allocations. It is the
// backing store for the protocols' struct-of-arrays hot state — per-slot
// view entries and record tables (UO2's contact rows, port-election
// records) live in arena blocks, so a population's working set is a
// handful of contiguous arrays instead of one heap object per node. Plan
// payloads do not: they live in the engine's one plan region per slot
// (sim.Ctx.PlanRegion), shared by every routing protocol.
package arena

// Block is how many carved buffers one arena block holds (times the
// per-carve capacity). Large enough that per-slot buffer allocation is
// amortized to noise, small enough that a part-filled final block wastes
// little.
const Block = 512

// Carve returns a zero-length slice with capacity n cut from a chunked
// arena: when the current block lacks room, a fresh block holding
// Block × n elements is allocated, and exhausted blocks stay referenced by
// the slices carved from them. Protocols use it to give every slot's state
// its retained buffer with one allocation per few hundred slots instead of
// one per slot — population setup is where the evaluation harness sheds
// most of its garbage, since every sweep cell builds a fresh system.
//
// The carved slice is full-capacity (three-index): appending within n stays
// inside the arena, appending beyond n falls back to a private heap copy,
// so an underestimated capacity costs one allocation, never corruption.
func Carve[T any](a *[]T, n int) []T {
	if n <= 0 {
		return nil
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, Block*n)
	}
	start := len(*a)
	*a = (*a)[:start+n]
	return (*a)[start : start : start+n]
}
