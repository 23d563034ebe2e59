// Package scenario executes declarative fault/reconfiguration timelines
// against a running system.
//
// A timeline is a list of spec.ScenarioEvent values — produced by the DSL's
// `scenario { ... }` block — that its embedder ticks after every round.
// Time is measured in completed rounds: an event with From == 0 fires when
// the timeline is bound (before the first round); an event with From == r
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
//
// A tick applies every due action and reports what its embedder must act
// on (Report): a reconfiguration, after which the embedder restarts its
// convergence clock, and the due snapshots, whose checkpoints the embedder
// writes. The package writes no file and calls nothing back. The sosf
// System takes every checkpoint after its round's actions, churn,
// convergence measurement and event, so it holds the state
// `sos snapshot -rounds R` writes.
package scenario

import (
	"fmt"
	"sort"

	"sosf/internal/core"
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

// Bind attaches the timeline to a live system and immediately applies its
// round-0 actions; Bind returns an error if one of them fails. Their
// report asks nothing of the embedder: validation refuses a round-0
// snapshot, and no convergence clock runs before the first round. The
// embedder then calls Tick after every round. Each Bind creates
// independent window state, so one timeline can drive many systems.
func (t *Timeline) Bind(sys *core.System) (*Bound, error) {
	b := &Bound{sys: sys, events: t.events, savedLoss: make(map[int]float64)}
	b.Tick(0)
	return b, b.err
}

// Bound is a timeline bound to one system.
type Bound struct {
	sys       *core.System
	events    []spec.ScenarioEvent
	savedLoss map[int]float64 // event index -> loss rate to restore at To
	report    Report
	err       error
}

// Report is what one tick did. Its slices are reused by the next tick;
// callers that keep them must copy.
type Report struct {
	// Fired describes the applied actions in timeline order (empty when
	// the round was quiet).
	Fired []string
	// Reconfigured reports a successful scheduled reconfiguration.
	Reconfigured bool
	// Snapshots lists the path templates of the `snapshot` actions due
	// this round, in timeline order. The tick writes nothing: the
	// embedder owns the checkpoint, which must also carry its own state.
	Snapshots []string
}

// Err returns the first runtime error a fired action produced (a failed
// reconfiguration), or nil.
func (b *Bound) Err() error { return b.err }

// Tick applies every action due at completed-round count t, in timeline
// order, and reports what it did. A failing action records the error
// (Err) and ends the tick.
func (b *Bound) Tick(t int) Report {
	b.report = Report{Fired: b.report.Fired[:0], Snapshots: b.report.Snapshots[:0]}
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
				b.report.Snapshots = append(b.report.Snapshots, ev.Path)
				b.note("snapshot %s", ev.Path)
			}
		case spec.ScenReconfigure:
			if t == ev.From {
				if err := b.sys.Reconfigure(ev.Reconfigure); err != nil {
					b.err = fmt.Errorf("scenario: reconfigure at round %d: %w", t, err)
					return b.report
				}
				b.note("reconfigure %s", ev.Reconfigure.Name)
				b.report.Reconfigured = true
			}
		}
	}
	return b.report
}

func (b *Bound) note(format string, args ...any) {
	b.report.Fired = append(b.report.Fired, fmt.Sprintf(format, args...))
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
