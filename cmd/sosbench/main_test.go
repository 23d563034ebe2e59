package main

import (
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
	w := &writer{dir: dir}

	// Silence the stdout rendering for the test.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = w.figure(sampleFigure())
	os.Stdout = old
	devnull.Close()
	if err != nil {
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
	w := &writer{dir: dir}
	tbl := metrics.NewTable("a", "b")
	tbl.AddRow("1", "2")

	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = w.table(&eval.TableResult{ID: "t", Title: "T", Table: tbl})
	os.Stdout = old
	devnull.Close()
	if err != nil {
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
