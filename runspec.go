package sosf

// RunSpec describes one run: the DSL source and every knob a caller may set
// on it. It is the one run description `sos`, the job service and the shard
// checker build their systems from. A knob left at its zero value is unset:
// Nodes 0 takes the file's `nodes` option, and a nil Rounds or Seed follows
// the file's `option rounds` / `option seed`, then DefaultRounds /
// DefaultSeed, so a self-contained .sos reproducer replays its exact run.
type RunSpec struct {
	// Source is the DSL source text.
	Source string
	// Nodes overrides the file's population when > 0.
	Nodes int
	// Rounds caps the run; nil follows the file, then DefaultRounds.
	Rounds *int
	// Seed pins the run's randomness; nil follows the file, then
	// DefaultSeed.
	Seed *int64
	// Churn replaces this fraction of the population per round (0 = off).
	Churn float64
	// Loss drops each exchange with this probability (0 = off).
	Loss float64
	// Workers shards each round: 0 or 1 runs serially, a negative value
	// selects GOMAXPROCS, and n > 1 pins n workers. The output is
	// byte-identical for every value.
	Workers int
}

// Options renders the spec as build options for New or Run, extra last. The
// range checks are the With* options' own, so an out-of-range knob fails
// with the same error whether it came from a flag, a job spec or code.
func (r RunSpec) Options(extra ...Option) []Option {
	opts := []Option{WithNodes(r.Nodes), WithChurn(r.Churn), WithLoss(r.Loss),
		optionFunc(func(c *config) { c.workers = r.Workers })}
	if r.Rounds != nil {
		opts = append(opts, WithRounds(*r.Rounds))
	}
	if r.Seed != nil {
		opts = append(opts, WithSeed(*r.Seed))
	}
	return append(opts, extra...)
}

// Check reports the first knob (or extra option) the With* options reject,
// without compiling Source or building anything.
func (r RunSpec) Check(extra ...Option) error {
	_, err := buildConfig(r.Options(extra...))
	return err
}
