package campaign

import (
	"math"

	"sosf/internal/spec"
)

// shrinker greedily minimizes a violating run. Every candidate edit is
// validated, emitted to DSL source, and re-executed; an edit is kept only
// if the original invariant still fires. All decisions are deterministic,
// so the same campaign seed always distills the same reproducer, byte for
// byte. Every candidate runs from round 0 of its own emitted source, so
// the best run and its violation are the finding: the reproducer is
// exactly what was tested.
type shrinker struct {
	c          *Campaign
	invariant  string
	resumeMode bool // shrinking a resume-equivalence divergence: every candidate re-runs the resume check
	best       *spec.Topology
	bestRun    *Run
	bestViol   *Violation
	steps      int // accepted edits
	tried      int // candidate executions
}

func newShrinker(c *Campaign, v *Violation, run *Run) *shrinker {
	return &shrinker{
		c:          c,
		invariant:  v.Invariant,
		resumeMode: v.Invariant == InvResume,
		best:       run.Spec,
		bestRun:    run,
		bestViol:   v,
	}
}

// minimize runs the shrinking passes to a fixpoint: drop whole events,
// narrow windows, reduce magnitudes, bisect the round budget down to the
// earliest failing horizon, and halve the population — in that order,
// cheapest structural wins first.
func (s *shrinker) minimize() (*Run, *Violation) {
	for {
		changed := s.dropEvents()
		changed = s.narrowWindows() || changed
		changed = s.reduceMagnitudes() || changed
		changed = s.bisectRounds() || changed
		changed = s.shrinkPopulation() || changed
		if !changed {
			return s.bestRun, s.bestViol
		}
	}
}

// dropEvents tries to delete each timeline event outright. On success the
// next event shifts into the same index, so the loop only advances past
// survivors — each event left in the final reproducer is individually
// necessary.
func (s *shrinker) dropEvents() bool {
	changed := false
	for i := 0; i < len(s.best.Scenario); {
		cand := cloneSpec(s.best)
		cand.Scenario = append(cand.Scenario[:i], cand.Scenario[i+1:]...)
		if s.accept(cand) {
			changed = true
		} else {
			i++
		}
	}
	return changed
}

// narrowWindows halves each window event toward a point: first pulling the
// end in, then pushing the start up.
func (s *shrinker) narrowWindows() bool {
	changed := false
	for i := 0; i < len(s.best.Scenario); i++ {
		for {
			ev := s.best.Scenario[i]
			if ev.To <= ev.From {
				break
			}
			cand := cloneSpec(s.best)
			cand.Scenario[i].To = ev.From + (ev.To-ev.From)/2
			if !s.accept(cand) {
				break
			}
			changed = true
		}
		for {
			ev := s.best.Scenario[i]
			if ev.To <= ev.From {
				break
			}
			cand := cloneSpec(s.best)
			cand.Scenario[i].From = ev.To - (ev.To-ev.From)/2
			if !s.accept(cand) {
				break
			}
			changed = true
		}
	}
	return changed
}

// reduceMagnitudes halves each event's magnitude toward its validity
// floor (quantized to two decimals, so the loop terminates and the
// reproducer stays readable).
func (s *shrinker) reduceMagnitudes() bool {
	changed := false
	for i := 0; i < len(s.best.Scenario); i++ {
		for {
			cand := cloneSpec(s.best)
			if !reduceEvent(&cand.Scenario[i]) {
				break
			}
			if !s.accept(cand) {
				break
			}
			changed = true
		}
	}
	return changed
}

// reduceEvent shrinks one event's magnitude a notch; false means nothing
// left to reduce.
func reduceEvent(ev *spec.ScenarioEvent) bool {
	switch ev.Kind {
	case spec.ScenKill, spec.ScenChurn, spec.ScenLoss:
		f := math.Round(ev.Fraction/2*100) / 100
		if f < 0.01 || f >= ev.Fraction {
			return false
		}
		ev.Fraction = f
		return true
	case spec.ScenJoin:
		n := ev.Count / 2
		if n < 1 || n >= ev.Count {
			return false
		}
		ev.Count = n
		return true
	case spec.ScenPartition:
		if ev.Count <= 2 {
			return false
		}
		ev.Count--
		return true
	default:
		return false
	}
}

// bisectRounds binary-searches the smallest round budget that still
// exhibits the violation — the "find the earliest failing window" step.
// Budgets that would strand an event beyond
// the horizon fail validation and count as non-failing, which steers the
// search correctly without special cases.
func (s *shrinker) bisectRounds() bool {
	lo, hi := 0, int(s.best.Option("rounds", 0))
	changed := false
	for lo+1 < hi {
		mid := (lo + hi) / 2
		cand := cloneSpec(s.best)
		cand.SetOption("rounds", int64(mid))
		if s.accept(cand) {
			hi = mid
			changed = true
		} else {
			lo = mid
		}
	}
	return changed
}

// shrinkPopulation halves the node count toward a floor that keeps every
// component populated enough to assemble its shape.
func (s *shrinker) shrinkPopulation() bool {
	changed := false
	for {
		nodes := int(s.best.Option("nodes", 0))
		floor := 4 * len(s.best.Components)
		if floor < 8 {
			floor = 8
		}
		next := nodes / 2
		if next < floor {
			next = floor
		}
		if next >= nodes {
			break
		}
		cand := cloneSpec(s.best)
		cand.SetOption("nodes", int64(next))
		if !s.accept(cand) {
			break
		}
		changed = true
	}
	return changed
}

// accept executes the candidate and, if the target invariant still fires,
// installs it as the new best.
func (s *shrinker) accept(cand *spec.Topology) bool {
	if err := cand.Validate(); err != nil {
		return false
	}
	s.tried++
	run, err := s.c.execute(cand, s.resumeMode)
	if err != nil {
		return false
	}
	v := s.c.checkNamed(run, s.invariant)
	if v == nil {
		return false
	}
	s.best, s.bestRun, s.bestViol = cand, run, v
	s.steps++
	return true
}

// cloneSpec deep-copies everything the shrinker mutates. Reconfigure
// target topologies are shared (no pass edits them in place).
func cloneSpec(t *spec.Topology) *spec.Topology {
	c := *t
	c.Components = append([]spec.Component(nil), t.Components...)
	for i := range c.Components {
		comp := &c.Components[i]
		if len(comp.Params) > 0 {
			params := make(map[string]int64, len(comp.Params))
			for k, v := range comp.Params {
				params[k] = v
			}
			comp.Params = params
		}
		comp.Ports = append([]string(nil), comp.Ports...)
	}
	c.Links = append([]spec.Link(nil), t.Links...)
	if t.Options != nil {
		c.Options = make(map[string]int64, len(t.Options))
		for k, v := range t.Options {
			c.Options[k] = v
		}
	}
	c.Scenario = append([]spec.ScenarioEvent(nil), t.Scenario...)
	return &c
}
