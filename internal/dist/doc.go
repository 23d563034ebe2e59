// Package dist is a shard-equivalence checker: it replays one simulation
// with a coordinator and N workers inside one process, each holding a full
// replica of the system and splitting only the Plan phase of the
// exchange-routing protocols, trading planned records over in-process
// net.Pipe ends at each protocol's Deliver barrier. The event stream and
// every snapshot are byte-identical to a serial run at any shard count;
// proving that a slot plans the same exchange no matter which replica runs
// it is all the package is for. It is not a scaling mode: N+1 replicas cost
// N+1 times the memory and about twice the wall clock of `sos play`
// (README, "Distributed runs").
//
// # Topology
//
// Every replica is built from the same DSL source, seed, and behavior
// configuration (the handshake ships all three, so workers cannot drift).
// Worker k owns the contiguous slot shard
//
//	[k·size/N, (k+1)·size/N)
//
// recomputed from the replicated population size at every round, so the
// partition rebalances itself under churn and joins with no messages. The
// coordinator owns the empty shard: it plans nothing, relays everything,
// and is the only replica with event subscribers.
//
// # Barrier protocol
//
// A round crosses one barrier per sharded protocol, in the fixed protocol
// order every replica computes from the stack: the routing protocols, which
// are the ones that implement sim.PlanCodec, as Engine.RunRoundSharded
// walks them.
// Per barrier, per connection, the frame sequence is strict:
//
//	worker                          coordinator
//	------                          -----------
//	Plan own shard                  Plan nothing
//	fkPlans{round,pi,shard,...} --->
//	                                collect fkPlans from workers 0..N-1
//	                                (a read error or fkFault here names
//	                                 the dead worker and aborts the run)
//	          <--- fkAggregate{round,pi, all N shards}
//	import N-1 remote shards        import all N shards
//	Deliver + Absorb (replicated)   Deliver + Absorb (replicated)
//
// The coordinator reads the workers' fkPlans frames sequentially; every
// alive worker sends its frame promptly after planning, so a dead peer
// surfaces as a truncated read within one barrier — never a hang. Each
// frame is length-prefixed and CRC-32C checksummed (internal/snap), so a
// flipped bit fails loudly instead of desynchronizing the stream.
//
// An fkPlans payload is Int(round) Int(pi) Int(shard) Varint(meter)
// followed by the shard's plan-record frame, which fills the rest of it,
//
//	Len(records) { Int(slot) Int(lane) body }*
//
// An fkAggregate payload is Int(round) Int(pi) Len(N) and then, per shard,
// Varint(meter) Uvarint(bytes) and that shard's plan-record frame. Each end
// reuses one buffer for the whole run: a worker encodes its plans into it
// through one reused snap.Writer, and every end decodes each shard's
// records from it in place through one reused snap.Reader, so a warm
// barrier's payloads cost no allocation.
//
// The engine owns that framing — Engine.EncodePlans writes the record
// count and each record's slot and route lane (the slot its Plan routed
// to, or -1), Engine.DecodePlans range-checks every slot and lane and sets
// the lanes — and a protocol's sim.PlanCodec owns only each record's body
// (the fields Absorb reads). A malformed record fails the import with an
// error wrapping sim.ErrBadPlan; both ends import through one helper,
// importShards.
//
// The full connection lifecycle:
//
//	CONNECTED --fkHello--> HANDSHAKING --fkHelloAck--> RUNNING
//	RUNNING   --fkPlans/fkAggregate cycles, one per barrier--> RUNNING
//	RUNNING   --round loop reaches the hello's TotalRounds--> DONE
//	any state --fkFault / read error--> FAILED (named error, run aborted)
//
// An end that fails tells its peer with a best-effort fkFault before it
// closes the connection. Both ends of a pipe can fail the same barrier and
// write their faults at once (a corrupt shard fails every importer), so
// the coordinator sends its faults concurrently and closes every
// connection after at most faultWait: the close is what unblocks a worker
// stuck writing to it, and each end still returns its own named error.
//
// There is no end-of-run message: every replica runs its loop to the
// hello's TotalRounds (the rounds target or the source's budget, extended
// to the scenario horizon). Replicas are built WithRunToEnd, so no round
// stops the run at convergence; a round end that fails makes DistRound
// return the failure, which aborts the run like any other fault.
//
// # Determinism
//
// Byte-identity at any shard count falls out of the same discipline that
// makes thread sharding invisible: every in-round draw comes from a
// counter-based per-(node, round, protocol, phase) stream, so a slot plans
// the same exchange no matter which replica runs it; the Deliver merge
// scans senders in ascending slot order no matter which lanes were pushed
// locally and which were imported; and the serial RNG only advances in the
// System's round-end hook, which every replica runs against identical
// state. Plan-phase meter deltas ride the barrier frames, so bandwidth
// accounting stays global on every replica and snapshots match bit for bit.
//
// Scenario timelines run replicated too, which means a scheduled
// `snapshot` action writes its checkpoint from every replica — the same
// bytes, atomically renamed, so they overwrite each other harmlessly.
//
// # Checkpoint and resume
//
// The coordinator owns checkpointing: it restores Config.ResumePath before
// the handshake and ships the blob to every worker inside fkHello, and it
// writes Config.SnapPath after the run from its own replica. A resumed
// distributed run continues the stream byte-for-byte, at any shard count on
// either side of the cut.
package dist
