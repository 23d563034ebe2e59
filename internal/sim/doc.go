// Package sim implements a deterministic, cycle-driven peer-to-peer
// simulation engine in the style of PeerSim's cycle-driven mode, which is
// the substrate the paper's evaluation runs on.
//
// The engine owns a population of nodes, a stack of protocols, a round
// scheduler, churn and failure injection, per-protocol bandwidth metering,
// and the one round-end hook its owner sets (Engine.SetRoundEnd). All
// in-round randomness flows from counter-based per-node streams keyed by
// (seed, node, round, protocol, phase), so a (seed, configuration) pair
// fully determines a run — for *any* worker count. Setup-time randomness
// (bootstrap contacts, churn, partitions) flows from a single seeded source
// consumed serially between rounds.
//
// # The five-phase round
//
// Each round runs every protocol, in registration order, through four
// bulk-synchronous phases, then folds per-worker side effects at a serial
// round barrier — five steps in all, every one of them either parallel or
// trivially cheap, so nothing in a round is serialized over the population:
//
//  1. Refresh — parallel over alive slots. Local state maintenance (aging,
//     pruning, folding in candidates from lower layers). For a routing
//     protocol (one that implements PlanCodec) the engine first clears the
//     slot's route lane and receive list in its route table.
//  2. Plan — parallel over alive slots. Compute the slot's gossip exchange
//     (partner choice, payloads, delivery outcome) into protocol-owned
//     per-slot plan records, meter the bytes put on the wire via Ctx.Count
//     (which meters the running protocol, in a per-worker shard), and
//     route the exchange with Ctx.Route (a sender-owned lane in the
//     engine's route table).
//  3. Deliver — parallel over destination shards, engine-driven. The
//     engine splits the slot space into contiguous target ranges, one per
//     worker, and merges the protocol's route lanes into per-target
//     receive lists. Every worker scans senders in ascending slot order,
//     so a target's list is identical to a serial slot-order delivery at
//     any worker count. Protocols do not implement this phase.
//  4. Absorb — parallel over alive slots. Fold everything the slot
//     received (its own exchange's reply, read from the slot Ctx.Target
//     names, plus each sender's payload, walked in ascending slot order
//     with Ctx.FirstSender / NextSender) into its local state.
//  5. Round barrier — serial, O(workers × protocols). Fold the per-worker
//     meter shards into the shared Meter (int64 addition, so totals are
//     exact and order-independent), snapshot the round's bandwidth, and
//     call the owner's round-end hook once; its return value is the run's
//     stop rule.
//
// Phase rules: a Refresh or Absorb may mutate the protocol's state for
// ctx.Slot() only, and may read other protocols' state for ctx.Slot()
// only. A Plan must treat every view and table as read-only — other
// workers are reading them too — but may write state no other slot's Plan
// reads (its own plan record, its own route lane). Plan records of other
// slots are frozen by Absorb time and safe to read.
//
// One caveat from metering at Plan time: if a hook kills a node between
// Plan and Deliver (possible only from test hooks — nothing in the runtime
// kills mid-round), the Deliver merge drops its exchange but its planned
// bytes were already metered. The pre-sharded engine skipped both; no
// non-test scenario can observe the difference.
//
// # Struct-of-arrays hot state
//
// Protocols store per-node state in dense slot-indexed storage; the engine
// guarantees slots are dense and stable for the lifetime of a run (dead
// nodes keep their slot), and it sizes every protocol's per-slot tables
// itself, serially, through Protocol.Resize: in AddNodes and, to the
// restored node count, in RestoreState. The hot state is struct-of-arrays
// throughout: the engine's node table is one contiguous []Node; per-slot
// view headers live in view.Table's dense array with their descriptor
// entries carved from a shared chunked arena (internal/arena); plan
// payloads and record tables are likewise carved via arena.Carve. A
// million-node population is a handful of large arrays that phases stream
// through in slot order, not millions of scattered heap objects — which is
// also what keeps the garbage collector out of steady-state rounds
// entirely (0 allocs/round).
package sim
