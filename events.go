package sosf

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"

	"sosf/internal/core"
	"sosf/internal/sim"
)

// RoundEvent is one per-round sample of a running system, emitted to every
// subscriber after each simulated round. For a fixed seed, topology, and
// scenario, the event stream is byte-for-byte reproducible.
//
// The JSON field names are stable and part of the public contract (they are
// what `sos play -events jsonl` streams).
type RoundEvent struct {
	// Round is the 1-based index of the completed round.
	Round int `json:"round"`
	// Nodes is the alive population after the round.
	Nodes int `json:"nodes"`
	// Converged reports whether every sub-procedure is at accuracy 1.0.
	Converged bool `json:"converged"`
	// Accuracy maps each sub-procedure (by its paper series label) to its
	// ground-truth accuracy in [0, 1].
	Accuracy map[string]float64 `json:"accuracy"`
	// BaselineBytes and OverheadBytes are this round's bytes per node for
	// the shape protocols and the runtime layers, respectively.
	BaselineBytes float64 `json:"baseline_bytes"`
	// OverheadBytes is documented with BaselineBytes.
	OverheadBytes float64 `json:"overhead_bytes"`
	// Heals counts the self-healing re-densify repairs the allocator
	// performed this round (absent on rounds without a heal, which is every
	// round of a fault-free run — steady-state streams are byte-identical
	// to pre-healing ones).
	Heals int `json:"heals,omitempty"`
	// Actions lists the scenario actions that fired this round, in
	// timeline order (absent on quiet rounds).
	Actions []string `json:"actions,omitempty"`
}

// Subscribe registers fn on the per-round event stream. Subscribe before
// the first Step: events are only emitted for rounds executed after the
// subscription. Subscribers run synchronously on the simulation goroutine,
// in subscription order.
func (s *System) Subscribe(fn func(RoundEvent)) {
	if fn != nil {
		s.events = append(s.events, fn)
	}
}

// emit feeds subscribers the round's event. endRound runs it after the
// scenario and the convergence tracker, so events describe the post-action
// state of the round; fired lists the scenario actions the round applied.
func (s *System) emit(e *sim.Engine, fired []string) {
	if len(s.events) == 0 {
		return
	}
	// The tracker, run before emit, measured this round already.
	m := s.tracker.Last
	ev := RoundEvent{
		Round:     e.Round(),
		Nodes:     e.AliveCount(),
		Converged: m.AllConverged(),
		Accuracy:  make(map[string]float64, 5),
		Actions:   slices.Clone(fired),
	}
	for _, sub := range core.Subs() {
		ev.Accuracy[sub.String()] = m.Fraction[sub]
	}
	if r := e.Round() - 1; r >= 0 && r < e.Meter().Rounds() && ev.Nodes > 0 {
		base, over := s.sys.BandwidthByClass(r)
		ev.BaselineBytes = float64(base) / float64(ev.Nodes)
		ev.OverheadBytes = float64(over) / float64(ev.Nodes)
	}
	if total := s.sys.Allocator().HealsTotal(); total > s.healsSeen {
		ev.Heals = int(total - s.healsSeen)
		s.healsSeen = total
	}
	for _, fn := range s.events {
		fn(ev)
	}
}

// JSONLSink returns an event subscriber that streams one JSON object per
// line to w — the format behind `sos play -events jsonl`. Field names are
// RoundEvent's JSON tags; map keys are emitted in sorted order, so the
// stream is deterministic. Write errors are silently dropped (the
// simulation must not fail because a consumer went away).
func JSONLSink(w io.Writer) func(RoundEvent) {
	enc := json.NewEncoder(w)
	return func(ev RoundEvent) {
		_ = enc.Encode(ev)
	}
}

// CSVSink returns an event subscriber that streams CSV to w: a header row
// first, then one row per round. Accuracy columns appear in the paper's
// presentation order; fired scenario actions are joined with "; " in the
// last column. Write errors are silently dropped.
func CSVSink(w io.Writer) func(RoundEvent) {
	cw := csv.NewWriter(w)
	wroteHeader := false
	return func(ev RoundEvent) {
		if !wroteHeader {
			header := []string{"round", "nodes", "converged", "baseline_bytes", "overhead_bytes"}
			for _, sub := range core.Subs() {
				header = append(header, sub.String())
			}
			header = append(header, "heals", "actions")
			_ = cw.Write(header)
			wroteHeader = true
		}
		row := []string{
			strconv.Itoa(ev.Round),
			strconv.Itoa(ev.Nodes),
			strconv.FormatBool(ev.Converged),
			strconv.FormatFloat(ev.BaselineBytes, 'g', -1, 64),
			strconv.FormatFloat(ev.OverheadBytes, 'g', -1, 64),
		}
		for _, sub := range core.Subs() {
			row = append(row, strconv.FormatFloat(ev.Accuracy[sub.String()], 'g', -1, 64))
		}
		row = append(row, strconv.Itoa(ev.Heals))
		row = append(row, strings.Join(ev.Actions, "; "))
		_ = cw.Write(row)
		cw.Flush()
	}
}
