package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %f, want 5", a.Mean())
	}
	// Sample variance of this classic data set is 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %f, want %f", a.Variance(), 32.0/7.0)
	}
}

func TestAccumulatorEdgeCases(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.CI90() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
	a.Add(3)
	if a.Variance() != 0 || a.CI90() != 0 {
		t.Fatal("single observation has no variance or CI")
	}
}

func TestCI90KnownValue(t *testing.T) {
	// Five observations 1..5: mean 3, sd sqrt(2.5), se sqrt(0.5),
	// t(4, 0.95) = 2.1318 → CI = 2.1318 * 0.7071...
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	want := 2.1318 * math.Sqrt(2.5/5)
	if math.Abs(a.CI90()-want) > 1e-6 {
		t.Fatalf("CI90 = %f, want %f", a.CI90(), want)
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 40; df++ {
		q := tQuantile90(df)
		if q > prev {
			t.Fatalf("t-quantile not non-increasing at df=%d: %f > %f", df, q, prev)
		}
		prev = q
	}
	if got := tQuantile90(0); got != 0 {
		t.Fatalf("tQuantile90(0) = %f, want 0", got)
	}
	if got := tQuantile90(1000); math.Abs(got-1.6449) > 1e-9 {
		t.Fatalf("large-df quantile = %f, want z=1.6449", got)
	}
}

// Property: the CI half-width shrinks (weakly) as identical batches of
// observations accumulate.
func TestCIShrinksWithN(t *testing.T) {
	f := func(seedRaw uint8) bool {
		base := []float64{1, 5, 2, 8, 3, float64(seedRaw)}
		var small, large Accumulator
		for _, x := range base {
			small.Add(x)
			large.Add(x)
		}
		for i := 0; i < 4; i++ {
			for _, x := range base {
				large.Add(x)
			}
		}
		return large.CI90() <= small.CI90()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is translation-equivariant and variance translation-
// invariant.
func TestTranslationProperties(t *testing.T) {
	f := func(xsRaw []int8, shiftRaw int8) bool {
		if len(xsRaw) < 2 {
			return true
		}
		shift := float64(shiftRaw)
		var a, b Accumulator
		for _, x := range xsRaw {
			a.Add(float64(x))
			b.Add(float64(x) + shift)
		}
		return math.Abs(b.Mean()-a.Mean()-shift) < 1e-9 &&
			math.Abs(b.Variance()-a.Variance()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateRuns(t *testing.T) {
	runs := [][]float64{
		{1, 2, 3},
		{3, 4, 5},
		{2, 3}, // shorter run: last point has 2 observations
	}
	sums := AggregateRuns(runs)
	if len(sums) != 3 {
		t.Fatalf("points = %d, want 3", len(sums))
	}
	if sums[0].Mean != 2 || sums[0].N != 3 {
		t.Fatalf("point 0 = %+v, want mean 2 over 3 runs", sums[0])
	}
	if sums[2].N != 2 || sums[2].Mean != 4 {
		t.Fatalf("point 2 = %+v, want mean 4 over 2 runs", sums[2])
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "uo1"
	s.Append(100, Summary{Mean: 8})
	s.Append(200, Summary{Mean: 10})
	if len(s.X) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.X))
	}
	if s.YMax() != 10 {
		t.Fatalf("YMax = %f, want 10", s.YMax())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("n", "rounds")
	tb.AddRow("100", "8.00 ±0.50")
	tb.AddRow("25600", "24.00 ±1.20")
	out := tb.String()
	if !strings.Contains(out, "25600") || !strings.Contains(out, "rounds") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4 (header, rule, 2 rows)", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("rule width %d != header width %d", len(lines[1]), len(lines[0]))
	}
}

func TestSeriesTableUnionOfX(t *testing.T) {
	a := &Series{Name: "a"}
	a.Append(1, Summary{Mean: 10})
	a.Append(2, Summary{Mean: 20})
	b := &Series{Name: "b"}
	b.Append(2, Summary{Mean: 200})
	b.Append(3, Summary{Mean: 300})
	out := SeriesTable("x", a, b).String()
	for _, want := range []string{"10.00", "200.00", "300.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("series table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table has %d lines, want 5 (3 x-values)", len(lines))
	}
}

func TestFormatMeanCI(t *testing.T) {
	got := FormatMeanCI(Summary{Mean: 3.14159, CI90: 0.271828})
	if got != "3.14 ±0.27" {
		t.Fatalf("FormatMeanCI = %q", got)
	}
}
