// Package scenario executes declarative fault/reconfiguration timelines
// against a running system.
//
// A timeline is a list of spec.ScenarioEvent values — produced by the DSL's
// `scenario { ... }` block — replayed by a per-round observer. Time is
// measured in completed rounds: an event with From == 0 fires when the
// timeline is bound (before the first round); an event with From == r
// fires after round r completes. Because every action draws its
// randomness from the engine's seeded source, a (seed, topology, timeline)
// triple fully determines a run.
//
// Action semantics by kind:
//
//   - kill, kill-component, join, churn are pulses: they fire on every
//     round of their [From, To] window (a point event fires once).
//   - loss and partition are window actions: state changes at From and is
//     restored at To (when To > From); a point event changes state
//     permanently.
//   - reconfigure, heal, and snapshot fire once, at From.
package scenario

import (
	"fmt"
	"sort"

	"sosf/internal/core"
	"sosf/internal/sim"
	"sosf/internal/snap"
	"sosf/internal/spec"
)

// Timeline is an executable scenario. The zero value is an empty timeline.
type Timeline struct {
	events []spec.ScenarioEvent
}

// New builds a timeline from already-validated events (spec.Topology's
// Validate is the gate).
func New(events []spec.ScenarioEvent) *Timeline {
	return &Timeline{events: events}
}

// Horizon returns the last round any event touches (0 for an empty
// timeline) — the minimum number of rounds a run must execute to play the
// whole timeline.
func (t *Timeline) Horizon() int {
	h := 0
	if t == nil {
		return h
	}
	for _, ev := range t.events {
		if ev.To > h {
			h = ev.To
		}
	}
	return h
}

// Bind attaches the timeline to a live system: it registers a per-round
// observer on the system's engine and immediately applies round-0 actions.
// Bind returns an error if a round-0 reconfiguration fails. Each Bind
// creates independent window state, so one timeline can drive many systems.
func (t *Timeline) Bind(sys *core.System) (*Bound, error) {
	b := &Bound{sys: sys, events: t.events, savedLoss: make(map[int]float64)}
	sys.Engine().Observe(b)
	b.tick(0)
	return b, b.err
}

// Bound is a timeline bound to one system. It implements sim.Observer.
type Bound struct {
	// OnReconfigure, when set, runs after every successful scheduled
	// reconfiguration — embedders hook convergence-tracker resets here.
	OnReconfigure func()
	// OnSnapshot, when set, writes a checkpoint for a scheduled `snapshot`
	// action. The embedding layer owns the sink so the checkpoint captures
	// its full state (engine, allocator, tracker, and this timeline's own
	// window bookkeeping), not just what the scenario package can see. A
	// scheduled snapshot with no sink is a runtime error, never a silent
	// skip.
	OnSnapshot func(round int, path string) error

	sys       *core.System
	events    []spec.ScenarioEvent
	savedLoss map[int]float64 // event index -> loss rate to restore at To
	fired     []string
	err       error
}

var _ sim.Observer = (*Bound)(nil)

// AfterRound implements sim.Observer: it fires every event due at the
// completed-round count and stops the run on a scenario runtime error
// (surfaced via Err).
func (b *Bound) AfterRound(e *sim.Engine) bool {
	b.fired = b.fired[:0]
	b.tick(e.Round())
	return b.err != nil
}

// Fired returns descriptions of the actions applied at the most recent
// tick, in timeline order (empty when the round was quiet). The slice is
// reused every round; callers that keep it must copy.
func (b *Bound) Fired() []string { return b.fired }

// Err returns the first runtime error a fired action produced (a failed
// reconfiguration), or nil.
func (b *Bound) Err() error { return b.err }

func (b *Bound) tick(t int) {
	eng := b.sys.Engine()
	for i := range b.events {
		ev := &b.events[i]
		switch ev.Kind {
		case spec.ScenKill:
			if ev.From <= t && t <= ev.To {
				n := len(b.sys.Kill(ev.Fraction))
				b.note("kill %g: %d nodes", ev.Fraction, n)
			}
		case spec.ScenKillComponent:
			if ev.From <= t && t <= ev.To {
				n := b.sys.KillComponent(ev.Component)
				b.note("kill component %s: %d nodes", ev.Component, n)
			}
		case spec.ScenJoin:
			if ev.From <= t && t <= ev.To {
				b.sys.AddNodes(ev.Count)
				b.note("join %d", ev.Count)
			}
		case spec.ScenChurn:
			if ev.From <= t && t <= ev.To {
				n := b.sys.Churn(ev.Fraction)
				b.note("churn %g: %d nodes", ev.Fraction, n)
			}
		case spec.ScenLoss:
			if t == ev.From {
				if ev.To > ev.From {
					b.savedLoss[i] = eng.LossRate()
				}
				eng.SetLossRate(ev.Fraction)
				b.note("loss %g", ev.Fraction)
			} else if ev.To > ev.From && t == ev.To {
				eng.SetLossRate(b.savedLoss[i])
				b.note("loss restored %g", b.savedLoss[i])
			}
		case spec.ScenPartition:
			if t == ev.From {
				eng.Partition(ev.Count)
				b.note("partition %d", ev.Count)
			} else if ev.To > ev.From && t == ev.To {
				eng.Heal()
				b.note("heal")
			}
		case spec.ScenHeal:
			if t == ev.From {
				eng.Heal()
				b.note("heal")
			}
		case spec.ScenSnapshot:
			if t == ev.From {
				if b.OnSnapshot == nil {
					b.err = fmt.Errorf("scenario: snapshot at round %d: no snapshot sink bound", t)
					return
				}
				if err := b.OnSnapshot(t, ev.Path); err != nil {
					b.err = fmt.Errorf("scenario: snapshot at round %d: %w", t, err)
					return
				}
				b.note("snapshot %s", ev.Path)
			}
		case spec.ScenReconfigure:
			if t == ev.From {
				if err := b.sys.Reconfigure(ev.Reconfigure); err != nil {
					b.err = fmt.Errorf("scenario: reconfigure at round %d: %w", t, err)
					return
				}
				b.note("reconfigure %s", ev.Reconfigure.Name)
				if b.OnReconfigure != nil {
					b.OnReconfigure()
				}
			}
		}
	}
}

func (b *Bound) note(format string, args ...any) {
	b.fired = append(b.fired, fmt.Sprintf(format, args...))
}

// SnapshotState serializes the timeline's window bookkeeping — the saved
// loss rates of in-flight `during ... loss` windows — so a run restored
// mid-window restores the correct rate when the window closes. Event
// indices are written in ascending order for a deterministic stream.
func (b *Bound) SnapshotState(w *snap.Writer) {
	keys := make([]int, 0, len(b.savedLoss))
	for i := range b.savedLoss {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	w.Len(len(keys))
	for _, i := range keys {
		w.Int(i)
		w.F64(b.savedLoss[i])
	}
}

// RestoreState rebuilds the window bookkeeping from SnapshotState.
func (b *Bound) RestoreState(r *snap.Reader) error {
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	clear(b.savedLoss)
	for j := 0; j < n; j++ {
		i := r.Int()
		rate := r.F64()
		if r.Err() == nil && (i < 0 || i >= len(b.events)) {
			return fmt.Errorf("scenario: snapshot names event %d, timeline has %d events", i, len(b.events))
		}
		b.savedLoss[i] = rate
	}
	return r.Err()
}
