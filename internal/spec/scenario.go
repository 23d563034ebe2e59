package spec

import "fmt"

// ScenarioKind enumerates the fault/reconfiguration actions a scenario
// timeline can schedule against a running system.
type ScenarioKind string

// The scenario action kinds. Pulse actions (kill, kill-component, join,
// churn) fire on every round of their window; window actions (loss,
// partition) change state at the window start and restore it at the window
// end; reconfigure and heal fire once at the window start.
const (
	ScenKill          ScenarioKind = "kill"
	ScenKillComponent ScenarioKind = "kill-component"
	ScenJoin          ScenarioKind = "join"
	ScenLoss          ScenarioKind = "loss"
	ScenChurn         ScenarioKind = "churn"
	ScenPartition     ScenarioKind = "partition"
	ScenHeal          ScenarioKind = "heal"
	ScenReconfigure   ScenarioKind = "reconfigure"
	ScenSnapshot      ScenarioKind = "snapshot"
)

// ScenarioEvent is one scheduled action of a scenario timeline. Time is
// measured in completed rounds: an event with From == 0 applies before the
// first round; From == r (r > 0) applies after round r completes. To == From
// describes a point event; To > From a window.
type ScenarioEvent struct {
	// From and To bound the active window, inclusive.
	From, To int
	// Kind selects the action.
	Kind ScenarioKind
	// Fraction is the kill fraction, loss probability, or churn rate.
	Fraction float64
	// Count is the join node count or partition group count.
	Count int
	// Component names the kill-component target.
	Component string
	// Path is the checkpoint destination of a snapshot action. Every
	// literal "%d" in it is replaced by the round number at write time; no
	// other character is interpreted (the path is not a format string).
	Path string
	// Reconfigure is the target topology of a reconfigure action.
	Reconfigure *Topology
}

// String renders the event compactly ("at 50 kill 0.30",
// "during 10 20 loss 0.30").
func (ev ScenarioEvent) String() string {
	when := fmt.Sprintf("at %d", ev.From)
	if ev.To > ev.From {
		when = fmt.Sprintf("during %d %d", ev.From, ev.To)
	}
	switch ev.Kind {
	case ScenKill, ScenLoss, ScenChurn:
		return fmt.Sprintf("%s %s %.2f", when, ev.Kind, ev.Fraction)
	case ScenKillComponent:
		return fmt.Sprintf("%s kill component %s", when, ev.Component)
	case ScenJoin, ScenPartition:
		return fmt.Sprintf("%s %s %d", when, ev.Kind, ev.Count)
	case ScenReconfigure:
		name := ""
		if ev.Reconfigure != nil {
			name = " " + ev.Reconfigure.Name
		}
		return fmt.Sprintf("%s reconfigure%s", when, name)
	case ScenSnapshot:
		return fmt.Sprintf("%s snapshot %q", when, ev.Path)
	default:
		return fmt.Sprintf("%s %s", when, ev.Kind)
	}
}

// validateScenario checks the topology's scenario events: known kinds,
// sane windows, fractions in range, valid reconfiguration targets, and —
// when the topology configures a horizon via `option rounds` — that no
// event is scheduled beyond it. An event past the horizon would silently
// never fire on a bounded run; rejecting it at parse time turns a quiet
// no-op into a loud authoring error. Topology.Validate ends with it, so a
// validated topology always carries a valid timeline.
func (t *Topology) validateScenario() error {
	horizon := t.Option("rounds", 0)
	for i, ev := range t.Scenario {
		if err := t.validateEvent(ev); err != nil {
			return fmt.Errorf("scenario event %d (%s): %w", i, ev, err)
		}
		// Events fire after their round completes, so an event at exactly
		// the horizon still runs on a `rounds`-bounded play.
		if horizon > 0 && int64(ev.To) > horizon {
			return fmt.Errorf("scenario event %d (%s): scheduled beyond the configured horizon (option rounds %d) and would never fire; extend `option rounds` or move the event",
				i, ev, horizon)
		}
	}
	return validateScenarioWindows(t.Scenario)
}

// validateScenarioWindows rejects timelines whose stateful windows (loss,
// partition) overlap another event of the same state: each window saves the
// state at its start and restores it at its end, so an overlapping change
// would be clobbered by a stale restore. Point events outside any window
// compose fine (a later window saves and restores whatever they set).
func validateScenarioWindows(events []ScenarioEvent) error {
	for i, w := range events {
		if w.To == w.From || (w.Kind != ScenLoss && w.Kind != ScenPartition) {
			continue
		}
		for j, e := range events {
			if i == j {
				continue
			}
			sameState := e.Kind == w.Kind || (w.Kind == ScenPartition && e.Kind == ScenHeal)
			if !sameState {
				continue
			}
			if e.From <= w.To && e.To >= w.From {
				return fmt.Errorf("scenario events %d (%s) and %d (%s) conflict: a %s window saves and restores state, so overlapping %s changes are not supported",
					i, w, j, e, w.Kind, e.Kind)
			}
		}
	}
	return nil
}

func (t *Topology) validateEvent(ev ScenarioEvent) error {
	if ev.From < 0 {
		return fmt.Errorf("round must be >= 0, got %d", ev.From)
	}
	if ev.To < ev.From {
		return fmt.Errorf("window end %d before start %d", ev.To, ev.From)
	}
	switch ev.Kind {
	case ScenKill:
		if ev.Fraction <= 0 || ev.Fraction > 1 {
			return fmt.Errorf("kill fraction must be in (0, 1], got %g", ev.Fraction)
		}
	case ScenKillComponent:
		if ev.Component == "" {
			return fmt.Errorf("kill component needs a component name")
		}
		if !t.scenarioComponentKnown(ev.Component) {
			return fmt.Errorf("unknown component %q (not in the topology or any reconfigure target)", ev.Component)
		}
	case ScenJoin:
		if ev.Count < 1 {
			return fmt.Errorf("join count must be >= 1, got %d", ev.Count)
		}
	case ScenLoss:
		if ev.Fraction < 0 || ev.Fraction >= 1 {
			return fmt.Errorf("loss probability must be in [0, 1), got %g", ev.Fraction)
		}
	case ScenChurn:
		if ev.Fraction <= 0 || ev.Fraction >= 1 {
			return fmt.Errorf("churn rate must be in (0, 1), got %g", ev.Fraction)
		}
	case ScenPartition:
		if ev.Count < 2 {
			return fmt.Errorf("partition needs >= 2 groups, got %d", ev.Count)
		}
	case ScenHeal:
		// No arguments.
	case ScenSnapshot:
		if ev.Path == "" {
			return fmt.Errorf("snapshot needs a destination path")
		}
		if ev.To != ev.From {
			return fmt.Errorf("snapshot is a point event; use `at`, not a window")
		}
		if ev.From == 0 {
			return fmt.Errorf("snapshot at round 0 holds nothing that the source and seed do not; schedule it at round 1 or later")
		}
	case ScenReconfigure:
		if ev.Reconfigure == nil {
			return fmt.Errorf("reconfigure needs a target topology")
		}
		if ev.To != ev.From {
			return fmt.Errorf("reconfigure is a point event; use `at`, not a window")
		}
		if len(ev.Reconfigure.Scenario) > 0 {
			return fmt.Errorf("reconfigure target must not carry its own scenario")
		}
		if err := ev.Reconfigure.Validate(); err != nil {
			return fmt.Errorf("reconfigure target: %w", err)
		}
	default:
		return fmt.Errorf("unknown action kind %q", ev.Kind)
	}
	return nil
}

// scenarioComponentKnown reports whether a component name exists in the base
// topology or in any scheduled reconfiguration target (a kill-component may
// legitimately target a component that only exists after a reconfigure).
func (t *Topology) scenarioComponentKnown(name string) bool {
	if t.Component(name) != nil {
		return true
	}
	for _, ev := range t.Scenario {
		if ev.Kind == ScenReconfigure && ev.Reconfigure != nil && ev.Reconfigure.Component(name) != nil {
			return true
		}
	}
	return false
}
