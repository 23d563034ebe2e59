// Package campaign is the deterministic generative fuzzing campaign
// behind `sos fuzz`: it samples randomized fault timelines — churn bursts,
// loss storms, cascading partitions, flash-join crowds, kill blasts, and
// mid-run reconfigurations — over a seed × topology × population matrix
// (three base topologies, populations 64 and 128, at most four fault events
// a timeline), executes each cell through the public sosf API, and checks
// a fixed invariant set:
//
//   - Reconverge: every layer back at accuracy 1.0 within N rounds of the
//     last fault (the paper's self-assembly promise).
//   - OrphanTail: the peer-sampling overlay's in-degree-zero tail stays
//     inside the ≤1% transient bound at the end of the run.
//   - BandwidthCeiling: no round moves more than the configured bytes per
//     node.
//   - Resume equivalence: a mid-run checkpoint restored into a fresh
//     system replays the remaining rounds byte-identically.
//   - PopulationFloor: an intentionally strict opt-in knob used to seed
//     failures for the shrinker and the regression corpus.
//
// When an invariant fires, the campaign minimizes automatically: it drops
// timeline events, narrows fault windows, halves magnitudes, bisects the
// round budget down to the earliest failing horizon, and shrinks the
// population — greedily, to a fixpoint, running every candidate from
// round 0 of its emitted DSL source, so the reproducer is exactly what was
// tested. Everything derives from the campaign seed, so the same seed
// always distills the same reproducer, byte for byte.
//
// Findings are committed under testdata/corpus as .in/.out pairs: the
// minimal .sos source (self-contained — it embeds its own nodes, seed,
// and rounds options) and the golden JSONL event stream its replay must
// reproduce. corpus_test.go replays every pair in CI through the same
// Replay entry point the campaign used to write them, and reruns the
// corpus campaign to require the committed files byte for byte.
package campaign
