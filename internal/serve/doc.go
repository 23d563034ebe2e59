// Package serve turns the sosf library into a long-running, multi-tenant
// simulation service: an HTTP API that manages many concurrent simulation
// jobs, streams their per-round events live over SSE, evicts idle jobs to
// checkpoints so paused long-horizon runs cost no memory, and exposes a
// Prometheus-text /metrics endpoint.
// It is the subsystem behind `sos serve`.
//
// # Jobs
//
// A job is one simulation run: a DSL source (or a JSON job spec, normalized
// to canonical DSL on submission) plus run options. Jobs follow `sos play`
// semantics — run-to-end, round budget extended to the scenario horizon —
// so a job's event stream is byte-identical to
// `sos play -events jsonl` of the same spec, no matter how many other jobs
// share the server. That determinism is the paper's contract lifted to a
// serving system, and it is enforced by tests and the CI serve-smoke gate.
//
// # Job state machine
//
//		                 start                 pause
//		pending ───────────────────▶ running ◀───────▶ paused
//		                                │     start       │ (evictor,
//		                                │                 ▼  LRU under budget)
//		                                │              evicted
//		                                │     start  ◀────┘ (transparent restore)
//		                     round == budget │ stop │ error
//		                                ▼
//		                         done / failed
//
//	  - pending: submitted, never started; no simulation state exists yet.
//	  - running: a runner goroutine steps the rest of the budget in one
//	    System.StepContext call; pause/stop cancel the context and take
//	    effect at the next round boundary, never mid-round.
//	  - paused: parked between rounds, system resident in memory.
//	  - evicted: paused, but the full run state has been checkpointed to
//	    <dir>/<id>.sosnap and the in-memory system released. Eviction is
//	    driven by a configurable resident-system budget (LRU over paused
//	    jobs); the next start restores the checkpoint transparently, and the
//	    concatenated event stream stays byte-identical to an uninterrupted
//	    run (the PR 5 snapshot contract).
//	  - done / failed: terminal. The final report is retained and the
//	    in-memory system released; the event spool remains replayable.
//
// # Event streaming
//
// Every job appends its RoundEvents, in the exact JSONL encoding of
// `sos play -events jsonl`, to a per-job spool file. GET /jobs/{id}/events
// replays the spool from round 0 and then follows live appends until the
// job reaches a terminal state — so a subscriber can attach at any time
// (before the first round, mid-run, after eviction and restore, or after
// completion) and always observe the same byte stream.
//
// # Metrics
//
// The server keeps one mutex-guarded struct of typed counters (metrics.go)
// and renders it on every scrape: job state counts, round throughput,
// per-protocol bandwidth (from the engine's Meter via
// sosf.(*System).ProtocolBandwidth), self-healing repairs and their
// heal-to-reconvergence latency, eviction and restore counters, and
// restore latency. One function writes the 13 families in name order, so
// the exposition is byte-stable: the family names are API, scraped by
// name by ci/check-serve.sh and the benchmark's serve_jobs workload.
package serve
