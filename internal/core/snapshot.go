package core

import (
	"encoding/json"
	"fmt"

	"sosf/internal/snap"
	"sosf/internal/spec"
)

// systemSnapKind tags full-system snapshots (engine + allocator + active
// topology + behavior-defining configuration). Bumped "system" → "system2"
// when the self-healing layer landed: the allocator section grew a heal
// counter and the embedded config a no_heal knob, so pre-healing snapshots
// are rejected instead of being misread.
const systemSnapKind = "system2"

// snapConfig is Config minus the Topology pointer, for JSON embedding in a
// snapshot. Every field here changes protocol behavior, so Restore verifies
// them against the restoring system's configuration: resuming under
// different knobs would silently diverge from the uninterrupted run.
type snapConfig struct {
	UO1Capacity   int   `json:"uo1_capacity"`
	OverlayGossip int   `json:"overlay_gossip"`
	DisableUO2    bool  `json:"disable_uo2"`
	PureGreedy    bool  `json:"pure_greedy"`
	NoHeal        bool  `json:"no_heal"`
	Nodes         int   `json:"nodes"`
	Seed          int64 `json:"seed"`
}

func snapConfigOf(cfg Config) snapConfig {
	return snapConfig{
		UO1Capacity:   cfg.UO1Capacity,
		OverlayGossip: cfg.OverlayGossip,
		DisableUO2:    cfg.DisableUO2,
		PureGreedy:    cfg.PureGreedy,
		NoHeal:        cfg.DisableHealing,
		Nodes:         cfg.Nodes,
		Seed:          cfg.Seed,
	}
}

// behaviorEqual compares the knobs that shape protocol behavior. Nodes and
// Seed are informational (the restored engine state is authoritative for
// both), so they are excluded.
func (c snapConfig) behaviorEqual(o snapConfig) bool {
	c.Nodes, o.Nodes = 0, 0
	c.Seed, o.Seed = 0, 0
	return c == o
}

// Snapshot serializes the full system — effective configuration, the
// *active* topology (which differs from the boot topology after a
// Reconfigure), allocator bookkeeping, and the complete engine state — so
// that Restore on a compatible system resumes the run byte-identically.
// Call it between rounds only. The caller owns sw: it may write more
// fields behind the snapshot, and it flushes sw.
func (s *System) Snapshot(sw *snap.Writer) error {
	sw.Header(systemSnapKind)

	cfgJSON, err := json.Marshal(snapConfigOf(s.cfg))
	if err != nil {
		return fmt.Errorf("core: snapshot config: %w", err)
	}
	sw.Bytes(cfgJSON)

	// The active topology travels without its scenario: timelines belong
	// to the embedding layer (they are re-bound from source on resume),
	// and reconfigure targets nested inside events must not recurse here.
	topo := *s.alloc.Topology()
	topo.Scenario = nil
	topoJSON, err := json.Marshal(&topo)
	if err != nil {
		return fmt.Errorf("core: snapshot topology: %w", err)
	}
	sw.Bytes(topoJSON)

	s.alloc.snapshot(sw)
	if err := s.eng.SnapshotState(sw); err != nil {
		return err
	}
	return sw.Err()
}

// Restore rebuilds the system's state from a Snapshot stream. The receiving
// system must have been built with the same behavior-defining configuration
// (protocol knobs, UO2 ablation); population, topology, epoch, RNG position
// and all per-node protocol state are replaced by the snapshot's. Worker
// configuration is untouched — resuming at a different worker count yields
// the same results. sr is left at the first byte behind the snapshot, so
// the caller can read on from the same Reader.
func (s *System) Restore(sr *snap.Reader) error {
	sr.Header(systemSnapKind)
	cfgJSON := sr.Bytes()
	topoJSON := sr.Bytes()
	if err := sr.Err(); err != nil {
		return err
	}

	var snapCfg snapConfig
	if err := json.Unmarshal(cfgJSON, &snapCfg); err != nil {
		return fmt.Errorf("core: restore config: %w", err)
	}
	if have := snapConfigOf(s.cfg); !have.behaviorEqual(snapCfg) {
		return fmt.Errorf("core: snapshot was taken under different protocol configuration (snapshot %+v, system %+v)", snapCfg, have)
	}

	topo := new(spec.Topology)
	if err := json.Unmarshal(topoJSON, topo); err != nil {
		return fmt.Errorf("core: restore topology: %w", err)
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("core: restore topology: %w", err)
	}

	if err := s.alloc.restore(sr, topo); err != nil {
		return err
	}
	if err := s.eng.RestoreState(sr); err != nil {
		return err
	}
	return s.alloc.restoreRanks(s.eng.Size())
}

// snapshot serializes the allocator's mutable bookkeeping. The structural
// parts (shapes, sides, port counts) are derived from the topology, which
// the system snapshot carries separately.
func (a *Allocator) snapshot(w *snap.Writer) {
	w.U32(a.epoch)
	w.U64(a.healsTotal)
	w.Len(len(a.nextIndex))
	for c := range a.nextIndex {
		w.Varint(int64(a.nextIndex[c]))
		w.Varint(int64(a.sizes[c]))
		w.Len(len(a.freeIndex[c]))
		for _, idx := range a.freeIndex[c] {
			w.Varint(int64(idx))
		}
	}
}

// restore installs the active topology and rebuilds the allocator's
// bookkeeping from a snapshot. The dense-rank tables are derived state:
// restoreRanks rebuilds them from the restored freeIndex lists once the
// engine is restored, rather than carrying them in the stream — this is
// what keeps resume-equivalence byte-identical even for a snapshot taken
// mid-heal.
func (a *Allocator) restore(r *snap.Reader, topo *spec.Topology) error {
	epoch := r.U32()
	heals := r.U64()
	ncomps := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if ncomps != len(topo.Components) {
		return fmt.Errorf("core: allocator snapshot has %d components, topology has %d", ncomps, len(topo.Components))
	}
	if err := a.install(topo); err != nil {
		return err
	}
	a.epoch = epoch
	a.healsTotal = heals
	for c := 0; c < ncomps; c++ {
		a.nextIndex[c] = int32(r.Varint())
		a.sizes[c] = int32(r.Varint())
		nfree := r.Len()
		if err := r.Err(); err != nil {
			return err
		}
		if a.nextIndex[c] < 0 || a.sizes[c] < 0 {
			return fmt.Errorf("core: allocator component %d has next index %d and size %d", c, a.nextIndex[c], a.sizes[c])
		}
		free := make([]int32, 0, min(nfree, 64)) // grown as indices arrive
		for i := 0; i < nfree; i++ {
			idx := int32(r.Varint())
			if err := r.Err(); err != nil {
				return err
			}
			if idx < 0 {
				return fmt.Errorf("core: allocator component %d frees index %d", c, idx)
			}
			free = append(free, idx)
		}
		a.freeIndex[c] = free
	}
	return r.Err()
}

// restoreRanks rebuilds every component's dense-rank table after a
// restore, against the restored engine's slot count: a component cannot
// have handed out more indices than there are slots, so a larger next
// index is corruption, rejected before it sizes a table.
func (a *Allocator) restoreRanks(slots int) error {
	for c, next := range a.nextIndex {
		if int(next) > slots {
			return fmt.Errorf("core: allocator component %d has next index %d beyond %d slots", c, next, slots)
		}
		a.refreshRanksComp(c)
	}
	return nil
}
