package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sosf/internal/eval"
	"sosf/internal/metrics"
)

func sampleFigure() *eval.Figure {
	s := &metrics.Series{Name: "Elementary Topology"}
	s.Append(100, metrics.Summary{Mean: 8, CI90: 0.3})
	s.Append(200, metrics.Summary{Mean: 10, CI90: 0.4})
	return &eval.Figure{
		ID:     "sample",
		Title:  "Sample figure",
		XLabel: "# of Nodes",
		YLabel: "rounds",
		LogX:   true,
		Series: []*metrics.Series{s},
		Notes:  []string{"note"},
	}
}

func TestWriterFigureFiles(t *testing.T) {
	dir := t.TempDir()
	w := &writer{out: io.Discard, dir: dir}
	if err := w.figure(sampleFigure()); err != nil {
		t.Fatal(err)
	}

	dat, err := os.ReadFile(filepath.Join(dir, "sample.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dat), "Elementary_Topology") {
		t.Fatalf("dat file:\n%s", dat)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "sample.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatal("svg file malformed")
	}
}

func TestWriterTableFiles(t *testing.T) {
	dir := t.TempDir()
	w := &writer{out: io.Discard, dir: dir}
	tbl := metrics.NewTable("a", "b")
	tbl.AddRow("1", "2")
	if err := w.table(&eval.TableResult{ID: "t", Title: "T", Table: tbl}); err != nil {
		t.Fatal(err)
	}

	txt, err := os.ReadFile(filepath.Join(dir, "t.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "1") {
		t.Fatalf("table file:\n%s", txt)
	}
}

// TestWorkerCount: -workers keeps its documented meaning (0 = GOMAXPROCS)
// by mapping onto eval.Options.RoundWorkers' rule, where 0 is serial and a
// negative value selects GOMAXPROCS.
func TestWorkerCount(t *testing.T) {
	for flag, want := range map[int]int{0: -1, 1: 1, 4: 4} {
		if got, err := workerCount(flag); err != nil || got != want {
			t.Errorf("workerCount(%d) = %d, %v; want %d", flag, got, err, want)
		}
	}
	if _, err := workerCount(-1); err == nil {
		t.Error("workerCount(-1) accepted a negative -workers")
	}
}

// TestGoldenOutput renders every driver at two runs per point and seed 1
// through the writer sosbench prints with, and requires the bytes of
// testdata/golden/sosbench.runs2.txt: the stdout of `sosbench -all -runs 2`
// (its timing lines go to stderr). Output does not depend on the pool size or
// the round workers, so the test keeps their defaults.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment (~10 s on 2 vCPU)")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "sosbench.runs2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	w := &writer{out: &got}
	for _, d := range eval.Drivers {
		res, err := d.Run(eval.Options{Runs: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if err := w.result(res); err != nil {
			t.Fatal(err)
		}
		got.WriteString("\n") // the blank line that ends each driver's output
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from the golden file at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, the golden file %d", len(gl), len(wl))
}
