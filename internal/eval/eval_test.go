package eval

import (
	"strings"
	"testing"

	"sosf/internal/core"
	"sosf/internal/dsl"
	"sosf/internal/metrics"
)

// fast returns harness options sized for unit tests.
func fast() Options {
	return Options{Runs: 1, Seed: 42}
}

func TestCanonicalTopologiesCompile(t *testing.T) {
	for _, entry := range GalleryEntries() {
		topo, err := dsl.ParseTopology(entry.DSL)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if len(topo.Components) == 0 || len(topo.Links) == 0 {
			t.Fatalf("%s: degenerate topology", entry.Name)
		}
	}
}

func TestRingOfRingsDSLShape(t *testing.T) {
	topo := MustTopology(RingOfRingsDSL(5))
	if len(topo.Components) != 5 || len(topo.Links) != 5 {
		t.Fatalf("5-ring composite: %d components, %d links",
			len(topo.Components), len(topo.Links))
	}
}

func TestTreeOfRingsLinkCount(t *testing.T) {
	topo := MustTopology(TreeOfRingsDSL(7))
	// A tree of 7 rings has 6 parent-child links.
	if len(topo.Links) != 6 {
		t.Fatalf("links = %d, want 6", len(topo.Links))
	}
}

func TestGridOfCliquesLinkCount(t *testing.T) {
	topo := MustTopology(GridOfCliquesDSL(3))
	// A 3x3 mesh has 2*3 horizontal + 2*3 vertical = 12 links.
	if len(topo.Links) != 12 {
		t.Fatalf("links = %d, want 12", len(topo.Links))
	}
	if len(topo.Components) != 9 {
		t.Fatalf("components = %d, want 9", len(topo.Components))
	}
}

func TestRunOnceConverges(t *testing.T) {
	res, err := RunOnce(core.Config{
		Topology: MustTopology(RingOfRingsDSL(3)),
		Nodes:    200,
		Seed:     7,
	}, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.AllConverged() {
		t.Fatalf("run did not converge: %+v", res.Final.Fraction)
	}
	for _, sub := range core.Subs() {
		if res.ConvergedAt[sub] < 0 {
			t.Fatalf("%s never converged", sub)
		}
		curve := res.Curves[sub]
		if len(curve) != res.Rounds {
			t.Fatalf("%s curve has %d points for %d rounds", sub, len(curve), res.Rounds)
		}
		if last := curve[len(curve)-1]; last < 1.0 {
			t.Fatalf("%s final accuracy %f", sub, last)
		}
	}
	if len(res.BaselinePerNode) != res.Rounds || len(res.OverheadPerNode) != res.Rounds {
		t.Fatal("bandwidth series length mismatch")
	}
}

// TestFig2Small drives the Figure 2 sweep with one run per point at the
// smallest scale to validate the whole pipeline; sosbench runs the real
// thing.
func TestFig2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep is slow")
	}
	res, err := runSweep("fig2")(fast())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(fig.Series))
	}
	elem := fig.Series[0]
	if elem.Name != core.SubElementary.String() {
		t.Fatalf("first series = %q", elem.Name)
	}
	if len(elem.X) < 6 {
		t.Fatalf("sweep points = %d", len(elem.X))
	}
	// The paper's headline trend: convergence grows slowly (log-like)
	// with node count — 32x more nodes must cost far less than 32x the
	// rounds, and the largest size must still converge.
	first, last := elem.Points[0].Mean, elem.Points[len(elem.X)-1].Mean
	if last >= float64(roundCap) {
		t.Fatalf("largest size did not converge: %f", last)
	}
	if last > first*6 {
		t.Fatalf("convergence not logarithmic-ish: %f -> %f", first, last)
	}
	if !fig.LogX {
		t.Fatal("fig2 must use a log x-axis")
	}
}

func TestFig4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 is slow")
	}
	o := fast()
	res, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want 2 (baseline, overhead)", len(fig.Series))
	}
	base, over := fig.Series[0], fig.Series[1]
	if len(base.X) != 20 || len(over.X) != 20 {
		t.Fatalf("rounds = %d/%d, want 20", len(base.X), len(over.X))
	}
	// Paper: both series are small (the figure's axis tops at 1000 bytes)
	// and of the same order of magnitude.
	for i := 0; i < len(base.X); i++ {
		if base.Points[i].Mean <= 0 || over.Points[i].Mean <= 0 {
			t.Fatalf("round %d: non-positive bandwidth", i)
		}
		if base.Points[i].Mean > 2000 || over.Points[i].Mean > 2000 {
			t.Fatalf("round %d: bandwidth out of the paper's ballpark: %f / %f",
				i, base.Points[i].Mean, over.Points[i].Mean)
		}
	}
	ratio := over.YMax() / base.YMax()
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("overhead/baseline ratio %f not same order of magnitude", ratio)
	}
}

func TestGallerySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("gallery is slow")
	}
	res, err := Gallery(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("tables = %d", len(res.Tables))
	}
	out := res.Tables[0].Table.String()
	for _, entry := range GalleryEntries() {
		if !strings.Contains(out, entry.Name) {
			t.Fatalf("gallery table missing %s:\n%s", entry.Name, out)
		}
	}
	// Every gallery topology must assemble into one connected system.
	if strings.Contains(out, "false") {
		t.Fatalf("a gallery topology is disconnected:\n%s", out)
	}
}

func TestCurvesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("curves is slow")
	}
	res, err := Curves(fast())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figures[0]
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Curves end fully converged for every sub-procedure.
	for _, s := range fig.Series {
		finalP := s.Points[len(s.X)-1]
		if finalP.Mean < 0.99 {
			t.Fatalf("%s final accuracy %f", s.Name, finalP.Mean)
		}
	}
}

func TestReconfigSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("reconfig is slow")
	}
	res, err := Reconfig(fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 1 || len(res.Tables) != 1 {
		t.Fatalf("unexpected result shape: %d figures, %d tables",
			len(res.Figures), len(res.Tables))
	}
	if strings.Contains(res.Tables[0].Table.String(), "failed to re-converge  1") {
		t.Fatalf("reconfiguration failed:\n%s", res.Tables[0].Table)
	}
	elem := res.Figures[0].Series[0]
	// Accuracy must dip right after the switch (round 41) and recover to
	// 1.0 by the end.
	atSwitch := elem.Points[41].Mean
	final := elem.Points[len(elem.X)-1].Mean
	if atSwitch > 0.9 {
		t.Fatalf("no visible dip after reconfiguration: %f", atSwitch)
	}
	if final < 1.0 {
		t.Fatalf("did not re-converge: %f", final)
	}
}

func TestSeedForDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for p := 0; p < 20; p++ {
		for r := 0; r < 20; r++ {
			s := seedFor(1, p, r)
			if seen[s] {
				t.Fatalf("seed collision at point %d run %d", p, r)
			}
			seen[s] = true
		}
	}
}

func TestFigureTable(t *testing.T) {
	fig := &Figure{XLabel: "nodes"}
	s := &metrics.Series{Name: "Elementary Topology"}
	s.Append(100, metrics.Summary{Mean: 8, CI90: 0.4})
	fig.Series = []*metrics.Series{s}
	out := fig.Table().String()
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "8.00") {
		t.Fatalf("figure table:\n%s", out)
	}
}

// TestSweepTableRows checks every row of the sweep table against the
// driver list and its own variants: each row is one driver, and each
// column reads a variant the row runs.
func TestSweepTableRows(t *testing.T) {
	ids := map[string]int{}
	for _, d := range Drivers {
		ids[d.ID]++
	}
	for id, s := range sweeps {
		if ids[id] != 1 {
			t.Errorf("%s: %d drivers, want 1", id, ids[id])
		}
		for _, sc := range []scale{s.reduced, s.full} {
			if len(sc.xs) == 0 {
				t.Errorf("%s: a scale has no points", id)
			}
		}
		for _, col := range s.columns {
			if col.variant < 0 || col.variant >= len(s.variants) {
				t.Errorf("%s: column %q reads variant %d of %d", id, col.name, col.variant, len(s.variants))
			}
		}
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("driver ID %s listed %d times", id, n)
		}
	}
}
