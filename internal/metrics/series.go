package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Series is one named plot line: X positions with per-X summaries (mean and
// 90% CI), matching the per-series format of the paper's figures.
type Series struct {
	Name   string
	X      []float64
	Points []Summary
}

// Append adds one (x, summary) pair.
func (s *Series) Append(x float64, p Summary) {
	s.X = append(s.X, x)
	s.Points = append(s.Points, p)
}

// Reserve pre-allocates room for at least n further points, so the next n
// Append calls do not reallocate. Drivers that know their sweep width call
// it once instead of growing the series point by point.
func (s *Series) Reserve(n int) {
	if need := len(s.X) + n; need > cap(s.X) {
		x := make([]float64, len(s.X), need)
		copy(x, s.X)
		s.X = x
	}
	if need := len(s.Points) + n; need > cap(s.Points) {
		p := make([]Summary, len(s.Points), need)
		copy(p, s.Points)
		s.Points = p
	}
}

// YMax returns the largest mean in the series (0 when empty).
func (s *Series) YMax() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.Mean > max {
			max = p.Mean
		}
	}
	return max
}

// Table renders rows of named columns as an aligned plain-text table,
// the row format the experiment harness prints for every figure.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// AddRow appends a row; missing cells render empty, extra cells are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatMeanCI renders "mean ±ci" with sensible precision.
func FormatMeanCI(s Summary) string {
	return fmt.Sprintf("%.2f ±%.2f", s.Mean, s.CI90)
}

// SeriesTable renders several series sharing X positions as one table with
// an x column followed by one "mean ±ci" column per series. Series may have
// different X sets; the union is used and missing cells are blank.
func SeriesTable(xLabel string, series ...*Series) *Table {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := make([]string, 0, len(series)+1)
	header = append(header, xLabel)
	for _, s := range series {
		header = append(header, s.Name)
	}
	t := NewTable(header...)
	for _, x := range xs {
		row := make([]string, 0, len(series)+1)
		row = append(row, trimFloat(x))
		for _, s := range series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = FormatMeanCI(s.Points[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
