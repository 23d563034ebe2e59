package sosf

import "fmt"

// Default values used when the corresponding option is absent. They are
// applied by New and Run, not baked into the option constructors, so
// WithRounds(0) and WithSeed(0) mean literally zero.
const (
	// DefaultRounds caps a run when WithRounds is not given.
	DefaultRounds = 150
	// DefaultSeed seeds a run when WithSeed is not given.
	DefaultSeed = 1
)

// Option configures New and Run. Options are built by the With*
// constructors.
type Option interface {
	apply(*config)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// config is the resolved configuration of one New/Run call.
type config struct {
	nodes       int
	rounds      int
	roundsSet   bool
	seed        int64
	seedSet     bool
	runToEnd    bool
	workers     int
	lossRate    float64
	churnRate   float64
	restorePath string
	snapEvery   int
	snapPath    string
	err         error // first invalid option, surfaced by New
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// buildConfig folds the options and applies defaults for whatever was left
// unset.
func buildConfig(opts []Option) (*config, error) {
	c := &config{}
	for _, o := range opts {
		if o != nil {
			o.apply(c)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if !c.roundsSet {
		c.rounds = DefaultRounds
	}
	if !c.seedSet {
		c.seed = DefaultSeed
	}
	return c, nil
}

// WithNodes sets the population size. Zero (the default) falls back to the
// topology's `nodes` option; one of the two must provide a size.
func WithNodes(n int) Option {
	return optionFunc(func(c *config) {
		if n < 0 {
			c.fail("sosf.WithNodes: nodes must be >= 0, got %d", n)
			return
		}
		c.nodes = n
	})
}

// WithRounds caps the simulation length. Zero is honored: WithRounds(0)
// builds a system and runs no rounds at all.
func WithRounds(n int) Option {
	return optionFunc(func(c *config) {
		if n < 0 {
			c.fail("sosf.WithRounds: rounds must be >= 0, got %d", n)
			return
		}
		c.rounds, c.roundsSet = n, true
	})
}

// WithSeed seeds all randomness of the run. Every value is honored —
// WithSeed(0) is the seed 0, not "use the default".
func WithSeed(seed int64) Option {
	return optionFunc(func(c *config) { c.seed, c.seedSet = seed, true })
}

// WithRunToEnd keeps the simulation running after every layer converged
// (by default runs stop at convergence).
func WithRunToEnd() Option {
	return optionFunc(func(c *config) { c.runToEnd = true })
}

// WithWorkers shards each simulation round across n workers. Randomness is
// drawn from counter-based per-node streams, so the run — figures, reports,
// and the streamed round events — is byte-identical for every worker count;
// workers only change how fast a round executes. n = 1 (the default) runs
// rounds serially in place; n = 0 selects GOMAXPROCS; larger n pins the
// worker count explicitly.
func WithWorkers(n int) Option {
	return optionFunc(func(c *config) {
		if n < 0 {
			c.fail("sosf.WithWorkers: workers must be >= 0, got %d", n)
			return
		}
		if n == 0 {
			c.workers = -1 // GOMAXPROCS, resolved by the engine
			return
		}
		c.workers = n
	})
}

// WithLoss drops each gossip exchange with the given probability.
func WithLoss(p float64) Option {
	return optionFunc(func(c *config) {
		if p < 0 || p >= 1 {
			c.fail("sosf.WithLoss: probability must be in [0, 1), got %g", p)
			return
		}
		c.lossRate = p
	})
}

// WithChurn replaces the given fraction of the population with fresh joins
// after every round.
func WithChurn(rate float64) Option {
	return optionFunc(func(c *config) {
		if rate < 0 || rate >= 1 {
			c.fail("sosf.WithChurn: rate must be in [0, 1), got %g", rate)
			return
		}
		c.churnRate = rate
	})
}

// WithSnapshotEvery writes a checkpoint of the full run state to path after
// every n-th completed round. Every literal "%d" in path is replaced by the
// round number (keep every checkpoint), and no other character is
// interpreted; without one the same file is rolled (always the latest).
// The checkpoint is taken after the round's scenario actions, churn,
// convergence measurement and event, and after the round's scheduled
// `snapshot` actions: it is the state `sos snapshot -rounds R` writes, and
// restoring it resumes exactly where the next round would have started.
// A failed write stops the run; the error surfaces from Step.
func WithSnapshotEvery(n int, path string) Option {
	return optionFunc(func(c *config) {
		if n < 1 {
			c.fail("sosf.WithSnapshotEvery: interval must be >= 1, got %d", n)
			return
		}
		if path == "" {
			c.fail("sosf.WithSnapshotEvery: path must not be empty")
			return
		}
		c.snapEvery, c.snapPath = n, path
	})
}

// WithRestoreFrom restores the run state from a checkpoint file written by
// System.Snapshot (or WithSnapshotEvery, or the DSL's `snapshot` action)
// once the system is built. The DSL source and behavior options must match
// the checkpointed run's; population, round counter, RNG position, and all
// protocol state come from the checkpoint. Stepping the restored system
// replays the uninterrupted run byte for byte, at any worker count.
func WithRestoreFrom(path string) Option {
	return optionFunc(func(c *config) {
		if path == "" {
			c.fail("sosf.WithRestoreFrom: path must not be empty")
			return
		}
		c.restorePath = path
	})
}
