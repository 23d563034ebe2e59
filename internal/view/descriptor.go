// Package view provides the node-descriptor and bounded partial-view
// primitives shared by every gossip protocol in the framework (peer
// sampling, Vicinity-style overlays, and the runtime sub-procedures).
//
// A Descriptor is the unit of gossip: a node identifier plus the profile
// assigned to that node by the runtime's role allocator, and an age used for
// freshness-based replacement and failure detection. A View is a bounded set
// of descriptors with no duplicates and never containing its owner.
package view

import (
	"fmt"
	"math"
)

// NodeID uniquely identifies a node for the lifetime of the system. IDs are
// never reused, even across churn.
type NodeID int64

// InvalidNode is the zero-ish sentinel for "no node". Valid IDs are >= 0.
const InvalidNode NodeID = -1

// ComponentID identifies one component (one elementary shape instance) of
// the target topology.
type ComponentID int32

// RankInf is returned by rankers to reject a candidate outright: the
// candidate is never kept in the view, regardless of available capacity.
const RankInf = math.MaxFloat64

// Profile is the role assigned to a node by the runtime's allocator. Every
// layer of the stack ranks and selects candidates using only profiles, so a
// profile is all a node needs to know about a peer.
//
// Index is a dense index inside the component (0..Size-1) from which shapes
// derive virtual coordinates (position on a ring, grid cell, tree slot).
// Size is the component size at assignment time. Epoch is the configuration
// epoch: descriptors from older epochs are stale and evicted on contact.
//
// Fields are ordered widest first so the struct packs into 24 bytes with no
// padding; the codecs write them by name, so the order is memory layout
// only.
type Profile struct {
	Key   uint64
	Comp  ComponentID
	Index int32
	Size  int32
	Epoch uint32
}

// String implements fmt.Stringer for debugging output.
func (p Profile) String() string {
	return fmt.Sprintf("comp=%d idx=%d/%d epoch=%d", p.Comp, p.Index, p.Size, p.Epoch)
}

// Descriptor is one gossip-able entry: who, what role, and how stale.
// Age sits last so its padding is the only waste: 40 bytes, pinned by
// TestDescriptorSizeof.
type Descriptor struct {
	ID      NodeID
	Profile Profile
	Age     uint16
}

// Fresher reports whether d is strictly fresher than other, considering
// epoch first (newer epochs always win) and then age.
func (d Descriptor) Fresher(other Descriptor) bool {
	if d.Profile.Epoch != other.Profile.Epoch {
		return d.Profile.Epoch > other.Profile.Epoch
	}
	return d.Age < other.Age
}
