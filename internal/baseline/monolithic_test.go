package baseline

import (
	"testing"

	"sosf/internal/view"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 3, 1); err == nil {
		t.Fatal("non-divisible population should fail")
	}
	if _, err := New(8, 4, 1); err == nil {
		t.Fatal("2-node segments should fail")
	}
}

// rankOne ranks a single fresh candidate through the pool method,
// returning view.RankInf when the ranker rejects it.
func rankOne(r monoRanker, owner, cand view.Profile) float64 {
	keys := r.Rank(owner, []view.Descriptor{{ID: 1, Profile: cand}}, 0, nil)
	if len(keys) == 0 {
		return view.RankInf
	}
	return keys[0].Rank
}

func TestRankerGeometry(t *testing.T) {
	r := monoRanker{segments: 4, segSize: 10}
	// Within segment 0: positions 3 and 5 are at cyclic distance 2.
	if got := rankOne(r, profile(3), profile(5)); got != 2 {
		t.Fatalf("intra-segment rank = %f, want 2", got)
	}
	// Wraparound inside a segment: positions 0 and 9 are adjacent.
	if got := rankOne(r, profile(0), profile(9)); got != 1 {
		t.Fatalf("wraparound rank = %f, want 1", got)
	}
	// Designated boundary pair: head of segment 0 (index 9) and tail of
	// segment 1 (index 10).
	if got := rankOne(r, profile(9), profile(10)); got != 0 {
		t.Fatalf("boundary rank = %f, want 0", got)
	}
	if got := rankOne(r, profile(10), profile(9)); got != 0 {
		t.Fatal("boundary rank must be symmetric")
	}
	// Wraparound boundary: head of segment 3 (index 39) and tail of
	// segment 0 (index 0).
	if got := rankOne(r, profile(39), profile(0)); got != 0 {
		t.Fatalf("wraparound boundary rank = %f, want 0", got)
	}
	// Arbitrary cross-segment pairs are rejected.
	if got := rankOne(r, profile(3), profile(25)); got != view.RankInf {
		t.Fatalf("cross-segment rank = %f, want RankInf", got)
	}
}

func profile(idx int32) view.Profile {
	return view.Profile{Index: idx, Size: 40, Key: uint64(idx)}
}

func TestBoundaryCapacityBonus(t *testing.T) {
	r := monoRanker{segments: 4, segSize: 10}
	if r.Capacity(profile(5)) != 5 {
		t.Fatalf("interior capacity = %d, want 5", r.Capacity(profile(5)))
	}
	if r.Capacity(profile(9)) != 6 || r.Capacity(profile(10)) != 6 {
		t.Fatal("boundary nodes should get a capacity bonus")
	}
}

func TestMonolithicConverges(t *testing.T) {
	s, err := New(200, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := s.RoundsToConverge(100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds >= 100 {
		t.Fatal("monolithic overlay should converge on a static population")
	}
	ringFrac, linkFrac := s.Accuracy()
	if ringFrac < 1 || linkFrac < 1 {
		t.Fatalf("accuracy = %f / %f", ringFrac, linkFrac)
	}
}

func TestMonolithicLosesLinksAfterCatastrophe(t *testing.T) {
	s, err := New(200, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RoundsToConverge(100); err != nil {
		t.Fatal(err)
	}
	// Kill half the population: with 8 designated boundary nodes, the
	// probability that all survive is (1/2)^8 — some links are lost and,
	// unlike the composed runtime, nothing re-elects them.
	s.Kill(0.5)
	if _, err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	ringFrac, linkFrac := s.Accuracy()
	if ringFrac < 0.9 {
		t.Fatalf("surviving rings should re-close: %f", ringFrac)
	}
	if linkFrac > 0.99 {
		t.Fatalf("expected permanent link loss after catastrophe, got %f", linkFrac)
	}
}

func TestBytesPerNodePositive(t *testing.T) {
	s, err := New(120, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.BytesPerNode() <= 0 {
		t.Fatal("bandwidth should be metered")
	}
}
