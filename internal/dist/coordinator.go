package dist

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"sosf"
	"sosf/internal/sim"
	"sosf/internal/snap"
)

// Config describes one distributed run. The zero value of every behavior
// field means "unset" (the DSL source's own options and the usual defaults
// apply), mirroring the serial CLI's explicit-flag forwarding.
type Config struct {
	// Source is the DSL source text; the handshake ships it to workers.
	Source string
	// Shards is the number of workers (each owns one contiguous slot
	// shard; the coordinator owns none).
	Shards int
	// Seed applies only when SeedSet (so seed 0 stays representable).
	Seed    int64
	SeedSet bool
	// Nodes overrides the source's population when > 0.
	Nodes int
	// Loss and Churn are forwarded as-is (0 = off).
	Loss  float64
	Churn float64
	// Rounds is the absolute target round, applied only when RoundsSet;
	// otherwise the source's `option rounds` / DefaultRounds applies. Either
	// way the budget extends to the scenario horizon, like `sos play`.
	Rounds    int
	RoundsSet bool
	// Threads shards each replica's round phases across OS threads with
	// sosf.RunSpec's worker rule (0 or 1 serial, negative GOMAXPROCS),
	// invisible in the output like everywhere else.
	Threads int
	// Events are subscribed on the coordinator's replica only — the one
	// system whose stream is observed.
	Events []func(sosf.RoundEvent)
	// SnapPath, when set, writes a checkpoint of the coordinator's replica
	// after the run.
	SnapPath string
	// ResumePath, when set, restores the run from a checkpoint before the
	// handshake and ships the blob to every worker.
	ResumePath string
}

// spec is the run description a hello carries. The coordinator and every
// worker build their replica from it through buildReplica, so a worker
// cannot configure its system differently from the coordinator: that
// shared constructor is the determinism contract's foundation.
func (h *hello) spec(threads int) sosf.RunSpec {
	rs := sosf.RunSpec{Source: h.Source, Nodes: h.Nodes, Churn: h.Churn, Loss: h.Loss, Workers: threads}
	if h.SeedSet {
		rs.Seed = &h.Seed
	}
	return rs
}

// buildReplica constructs and (for resumed runs) restores one replica from
// a hello — the identical path on the coordinator and every worker.
func buildReplica(h *hello, threads int) (*sosf.System, error) {
	// Distributed runs are play-like: the stream only makes sense run to
	// the end, and a convergence stop would have to be coordinated.
	sys, err := sosf.New(h.Source, h.spec(threads).Options(sosf.WithRunToEnd())...)
	if err != nil {
		return nil, err
	}
	if len(h.Snapshot) > 0 {
		if err := sys.Restore(bytes.NewReader(h.Snapshot)); err != nil {
			return nil, fmt.Errorf("dist: restore checkpoint: %w", err)
		}
	}
	return sys, nil
}

// Coordinator owns a distributed run: it builds the reference replica,
// hands each worker its shard, relays plan records at every barrier, and
// is the only replica whose event stream and checkpoints are observed.
type Coordinator struct {
	cfg   Config
	hello hello // template; Shard is stamped per worker
	sys   *sosf.System
	conns []Conn
	// Every barrier of the run reuses these: buf is where the aggregate is
	// assembled from the workers' plans frames, and shards and dec decode
	// it.
	buf    []byte
	shards []plansMsg
	dec    snap.Reader
}

// NewCoordinator builds the coordinator's replica (restoring ResumePath if
// set) and resolves the run's round window. Connect workers with Run.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("dist: need at least 1 shard, got %d", cfg.Shards)
	}
	h := hello{
		Seed:    cfg.Seed,
		SeedSet: cfg.SeedSet,
		Nodes:   cfg.Nodes,
		Loss:    cfg.Loss,
		Churn:   cfg.Churn,
		Shards:  cfg.Shards,
		Source:  cfg.Source,
	}
	if cfg.ResumePath != "" {
		blob, err := os.ReadFile(cfg.ResumePath)
		if err != nil {
			return nil, err
		}
		h.Snapshot = blob
	}
	sys, err := buildReplica(&h, cfg.Threads)
	if err != nil {
		return nil, err
	}
	// Round window: explicit -rounds is the absolute target (resume
	// semantics), the source's budget otherwise, extended to the scenario
	// horizon so the last scheduled action always fires — play semantics.
	total := sys.PlayHorizon()
	if cfg.RoundsSet {
		total = max(cfg.Rounds, sys.ScenarioHorizon())
	}
	h.StartRound = sys.Round()
	h.TotalRounds = total
	if total < h.StartRound {
		return nil, fmt.Errorf("dist: checkpoint is at round %d, past the rounds target %d", h.StartRound, total)
	}
	for _, fn := range cfg.Events {
		sys.Subscribe(fn)
	}
	return &Coordinator{cfg: cfg, hello: h, sys: sys}, nil
}

// System returns the coordinator's replica (for reports and snapshots).
func (c *Coordinator) System() *sosf.System { return c.sys }

// faultWait bounds how long an aborting coordinator waits for its fault
// reports to be read before it closes the connections. A worker that is
// itself blocked writing (its next plans frame, or its own fault) never
// reads the report; closing the connection is what unblocks it.
const faultWait = time.Second

// Run drives the whole run over the given worker connections, one per
// shard: handshake, round loop with one exchange per sharded protocol per
// round, and the final SnapPath checkpoint. On any error the workers are
// told (a best-effort fkFault to each at once, for at most faultWait) and
// every connection is closed, so a single dead or broken peer fails the
// run within one barrier instead of hanging it. Run closes the connections
// in every case.
func (c *Coordinator) Run(conns []Conn) error {
	abort := func(err error) error {
		sent := make(chan struct{}, len(conns))
		for _, conn := range conns {
			go func() {
				sendFault(conn, err)
				sent <- struct{}{}
			}()
		}
		deadline := time.After(faultWait)
	wait:
		for range conns {
			select {
			case <-sent:
			case <-deadline:
				break wait
			}
		}
		for _, conn := range conns {
			conn.Close()
		}
		return err
	}
	if len(conns) != c.cfg.Shards {
		return abort(fmt.Errorf("dist: %d connections for %d shards", len(conns), c.cfg.Shards))
	}
	c.conns = conns
	for i, conn := range conns {
		if err := c.handshake(i, conn); err != nil {
			return abort(err)
		}
	}
	for r := c.hello.StartRound; r < c.hello.TotalRounds; r++ {
		if _, err := c.sys.DistRound(0, 0, c.exchange); err != nil {
			return abort(err)
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	if c.cfg.SnapPath != "" {
		if err := c.sys.WriteSnapshot(c.cfg.SnapPath); err != nil {
			return err
		}
	}
	return nil
}

// handshake sends worker i its hello and verifies the ack.
func (c *Coordinator) handshake(i int, conn Conn) error {
	h := c.hello
	h.Shard = i
	if err := snap.WriteFrame(conn, fkHello, encodeHello(&h)); err != nil {
		return fmt.Errorf("%w: shard %d/%d in handshake: %v", ErrWorkerDead, i, c.cfg.Shards, err)
	}
	kind, payload, err := snap.ReadFrame(conn, 0)
	if err != nil {
		return fmt.Errorf("%w: shard %d/%d in handshake: %v", ErrWorkerDead, i, c.cfg.Shards, err)
	}
	if kind == fkFault {
		return fmt.Errorf("shard %d/%d: %w", i, c.cfg.Shards, faultError(payload))
	}
	if kind != fkHelloAck {
		return fmt.Errorf("%w: shard %d sent frame kind %d in handshake, want ack", ErrProtocol, i, kind)
	}
	digest, shard, err := decodeAck(payload)
	if err != nil {
		return err
	}
	if digest != c.hello.digest() || shard != i {
		return fmt.Errorf("%w: shard %d acked digest %#x shard %d, want %#x shard %d",
			ErrTopologyMismatch, i, digest, shard, c.hello.digest(), i)
	}
	return nil
}

// exchange is the coordinator's side of one barrier: collect every
// worker's plan records (sequential reads — a dead worker surfaces here,
// within the barrier), broadcast the aggregate, then import all shards
// into the local replica. Each plans frame is read straight behind the
// aggregate assembled so far and spliced into it in place, so the records
// are not copied out of the buffer they arrive in. The coordinator's own
// shard is empty, so it encodes nothing and imports everything.
func (c *Coordinator) exchange(pi int, _ sim.PlanCodec, _ []int) error {
	round := c.sys.Round()
	n := len(c.conns)
	agg := appendAggregateHead(c.buf[:0], round, pi, n)
	for i, conn := range c.conns {
		start := len(agg)
		kind, out, err := snap.AppendFrame(agg, conn, 0)
		c.buf = out
		if err != nil {
			return fmt.Errorf("%w: shard %d/%d at round %d barrier %d: %v", ErrWorkerDead, i, n, round, pi, err)
		}
		if kind == fkFault {
			return fmt.Errorf("shard %d/%d at round %d: %w", i, n, round, faultError(out[start:]))
		}
		if kind != fkPlans {
			return fmt.Errorf("%w: shard %d sent frame kind %d at round %d barrier %d, want plans",
				ErrProtocol, i, kind, round, pi)
		}
		m, err := decodePlans(out[start:])
		if err != nil {
			return err
		}
		if m.Round != round || m.PI != pi || m.Shard != i {
			return fmt.Errorf("%w: shard %d sent plans for round %d protocol %d shard %d, want round %d protocol %d shard %d",
				ErrProtocol, i, m.Round, m.PI, m.Shard, round, pi, i)
		}
		agg = spliceShard(out, start, m)
	}
	for i, conn := range c.conns {
		if err := snap.WriteFrame(conn, fkAggregate, agg); err != nil {
			return fmt.Errorf("%w: shard %d/%d at round %d barrier %d: %v", ErrWorkerDead, i, n, round, pi, err)
		}
	}
	_, _, shards, err := decodeAggregate(agg, c.shards)
	c.shards = shards
	if err != nil {
		return err
	}
	return importShards(c.sys.Engine(), &c.dec, round, pi, shards, -1)
}

// importShards decodes every shard's plan records except own's (-1 imports
// them all) into eng through r, and credits their Plan-phase meter deltas
// — the import half of a barrier, identical on the coordinator and every
// worker.
func importShards(eng *sim.Engine, r *snap.Reader, round, pi int, shards []plansMsg, own int) error {
	for i := range shards {
		if i == own {
			continue
		}
		r.Reset(shards[i].Records)
		if err := eng.DecodePlans(pi, r); err != nil {
			return fmt.Errorf("dist: importing shard %d round %d protocol %d: %w", i, round, pi, err)
		}
		eng.AddPlanBytes(pi, shards[i].Meter)
	}
	return nil
}
