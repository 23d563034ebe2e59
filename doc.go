// Package sosf is an assembly-based programming framework for complex
// distributed topologies, reproducing the system sketched in Simon Bouget's
// "Position paper: Toward an holistic approach of Systems of Systems"
// (Middleware 2016, Doctoral Symposium).
//
// The framework lets a developer describe a large distributed system as an
// assembly of elementary self-organizing shapes — rings, stars, cliques,
// trees, grids, tori, hypercubes — connected through named ports:
//
//	topology ring_of_rings {
//	    let k = 8
//	    repeat i 0 k-1 {
//	        component seg[i] ring {
//	            weight 1
//	            port head
//	            port tail
//	        }
//	    }
//	    repeat i 0 k-1 {
//	        link seg[i].head seg[(i+1)%k].tail
//	    }
//	}
//
// A gossip runtime maps this description onto a concrete node population
// and keeps it converged through failures, churn, and live reconfiguration.
// The stack (bottom to top): a peer-sampling service, a same-component
// overlay (UO1), a distant-component overlay (UO2), one Vicinity-style core
// protocol per component shape, a gossip port election, and a
// port-connection procedure that realizes inter-component links.
//
// # Running a system
//
// The simplest entry point runs a DSL source inside the deterministic
// simulation engine and reports convergence. Configuration uses functional
// options; every value is representable, including seed 0 and rounds 0:
//
//	report, err := sosf.Run(src, sosf.WithNodes(800), sosf.WithSeed(7))
//
// For live interaction (mid-run reconfiguration, failure injection), build
// a System and drive it round by round:
//
//	sys, _ := sosf.New(src, sosf.WithNodes(800))
//	sys.Step(50)
//	sys.ReconfigureSource(newSrc)
//	sys.Step(50)
//
// Large populations can shard each simulation round across cores with
// WithWorkers. All in-round randomness flows from counter-based per-node
// streams, so the run — report, figures, and the streamed round events —
// is byte-identical for every worker count:
//
//	report, err := sosf.Run(src, sosf.WithNodes(100_000), sosf.WithWorkers(0))
//
// # Scenario scripting
//
// Whole experiments — churn bursts, loss windows, partitions, targeted
// failures, live topology changes — are a `scenario { ... }` block in the
// DSL source, scheduled onto the simulation's per-round hook. The .sos
// file thus carries its own fault script, and every tool that rebuilds a
// run from its source (`sos play`, `sos resume`, `sos serve`, `sos dist`)
// replays it:
//
//	topology demo {
//	    ...
//	    scenario {
//	        during 10 20 loss 0.3
//	        at 30 kill 0.5
//	        at 45 reconfigure { ... }
//	    }
//	}
//
// A source with a timeline runs to its end instead of stopping at the
// first convergence.
//
// # Streaming round events
//
// Subscribe taps the per-round event stream (accuracy, population,
// bandwidth, fired scenario actions); JSONLSink and CSVSink adapt it to
// line-oriented formats:
//
//	sys.Subscribe(sosf.JSONLSink(os.Stdout))
//	sys.Step(150)
//
// # Checkpoint and resume
//
// Long-horizon runs checkpoint and resume deterministically: a snapshot
// captures the complete run state (population, round counter, the serial
// RNG's position, every protocol layer's per-node state, bandwidth history,
// convergence tracking, and in-flight scenario windows), and a restored run
// replays the uninterrupted one byte for byte — events, figures, and
// reports — at any worker count:
//
//	sys.Step(1_000_000)
//	sys.WriteSnapshot("warm.sosnap")               // explicit checkpoint
//
//	sys2, _ := sosf.New(src, sosf.WithRestoreFrom("warm.sosnap"))
//	sys2.Step(1_000_000)                           // rounds 1M+1 .. 2M
//
// WithSnapshotEvery(n, path) checkpoints periodically from inside the run;
// a `snapshot at <round> "path"` directive inside a DSL scenario block does
// the same from the timeline. Both are written once the round has ended
// (its actions, churn, measurement and event), so each equals WriteSnapshot
// after Step to that round. One warm state can seed many continuations
// (different scenarios, different worker counts), which makes long runs
// branchable and regressions bisectable by round.
//
// Protocol implementations participate through the per-slot hook of
// sim.Protocol: a protocol serializes one slot's complete inter-round
// state in SnapshotSlot and rebuilds it — without drawing randomness — in
// RestoreSlot, while the engine frames the slots and checks their count.
// The hook is part of the interface, so a protocol that could not be
// checkpointed does not compile. The counter-based per-node RNG streams are what make
// the contract cheap: in-round randomness is keyed by
// (seed, node, round, protocol, phase) and needs no serialization at all,
// while the engine's serial source is captured as its last 607 draws and
// a draw count, read back on restore without a replay.
//
// Everything underneath lives in internal packages: internal/core (the
// runtime), internal/scenario (the timeline executor), internal/vicinity
// and internal/peersampling (the overlay substrate), internal/shapes (the
// component library), internal/dsl (the language), internal/sim (the
// cycle-driven engine), and internal/eval (one driver per figure of the
// paper's evaluation).
package sosf
