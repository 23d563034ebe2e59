package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// printResult prints one workload's metrics, each by name with its unit.
func printResult(w io.Writer, r *Result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	if r.Skipped != "" {
		fmt.Fprintf(w, "== %s (%s): skipped — %s\n", r.Workload, pass, r.Skipped)
		return
	}
	fmt.Fprintf(w, "== %s (%s): ops %d, failed %d, samples %d, wall %.1f s, stream %.12s…\n",
		r.Workload, pass, r.Ops, r.Failed, r.Samples, r.WallS, r.Hash)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  OUTPUT CHECK FAILED: %s\n", c)
	}
	for _, d := range endToEnd {
		note := ""
		if d.Name == "round_ms_p50" {
			note = fmt.Sprintf("   (n=%d", r.Samples)
			if r.Tail != "" {
				note += ", " + r.Tail
			}
			note += ")"
		}
		fmt.Fprintf(w, "  %-42s %14.4f %s%s\n", d.Name, r.E2E[d.Name], d.Unit, note)
	}
	fmt.Fprintf(w, "  %-42s %14.4f %s\n", failedOps, r.E2E[failedOps], "share")
	if !r.Traced {
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", "converge_round", r.E2E["converge_round"], "round")
		return
	}
	for _, d := range perLayer {
		v, ok := r.Layer[d.Name]
		if !ok {
			v, ok = r.E2E[d.Name]
		}
		if ok && !d.Derived {
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// printDerived prints the metrics the all-workload mode fills in after the
// passes, because they relate two workloads or two passes.
func printDerived(traced map[string]*Result) {
	fmt.Println("== across workloads and passes")
	for _, name := range workloadNames {
		for _, metric := range []string{"trace.overhead_pct", "sim.worker_efficiency", "dist.slowdown_x"} {
			if v, ok := traced[name].Layer[metric]; ok {
				fmt.Printf("  %-16s %-26s %12.4f\n", name, metric, v)
			}
		}
	}
}

// compareFiles applies each metric's bound per (workload, metric) to two
// result sets of the same seed and sizing. It exits non-zero on a metric
// that got worse by more than its bound, and on any exact metric, stream
// hash or failure count that differs at all.
func compareFiles(pathA, pathB string) int {
	var a, b ResultSet
	for _, in := range []struct {
		path string
		set  *ResultSet
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(in.path)
		if err == nil {
			err = json.Unmarshal(data, in.set)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", in.path, err)
			return 2
		}
	}
	bad := 0
	fmt.Printf("%-16s %-36s %14s %14s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "verdict")
	for _, name := range workloadNames {
		for _, row := range compareWorkload(name, &a, &b) {
			fmt.Println(row.String())
			if row.Verdict == "worse" || row.Verdict == "differs" {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d row(s) worse or differing\n", bad)
		return 1
	}
	fmt.Println("no row worse")
	return 0
}

type compareRow struct {
	Workload, Metric string
	A, B             float64
	Change, Spread   float64 // shares of A's median; Change > 0 is worse
	Verdict          string  // same, worse, better, unresolved, differs, skipped
}

func (r compareRow) String() string {
	return fmt.Sprintf("%-16s %-36s %14.4f %14.4f %+7.1f%% %7.1f%%  %s",
		r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Spread, r.Verdict)
}

// values gathers one metric of one workload over a set's untraced runs, or
// from its traced pass for a per-layer metric.
func (s *ResultSet) values(workload, metric string, layer bool) []float64 {
	var out []float64
	take := func(r *Result) {
		if r == nil || r.Skipped != "" {
			return
		}
		m := r.E2E
		if layer {
			m = r.Layer
		}
		if v, ok := m[metric]; ok {
			out = append(out, v)
		}
	}
	if layer {
		take(s.Traced[workload])
		return out
	}
	for _, run := range s.Runs {
		take(run[workload])
	}
	return out
}

func compareWorkload(name string, a, b *ResultSet) []compareRow {
	var rows []compareRow
	exact := func(metric string, va, vb []float64) {
		row := compareRow{Workload: name, Metric: metric, A: median(va), B: median(vb), Verdict: "same"}
		all := append(append([]float64(nil), va...), vb...)
		for _, v := range all {
			if v != all[0] {
				row.Verdict = "differs"
			}
		}
		rows = append(rows, row)
	}
	for _, d := range endToEnd {
		va, vb := a.values(name, d.Name, false), b.values(name, d.Name, false)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		if d.Exact {
			exact(d.Name, va, vb)
			continue
		}
		rows = append(rows, judge(name, d, va, vb))
	}
	for _, metric := range []string{"converge_round", failedOps} {
		if va, vb := a.values(name, metric, false), b.values(name, metric, false); len(va) > 0 && len(vb) > 0 {
			exact(metric, va, vb)
		}
	}
	for _, d := range perLayer {
		va, vb := a.values(name, d.Name, true), b.values(name, d.Name, true)
		if d.Exact && len(va) > 0 && len(vb) > 0 {
			exact(d.Name, va, vb)
		}
	}
	return rows
}

// judge gives a bounded metric its verdict. The change is worse when it
// exceeds the bound; where the run-to-run spread of either side is wider
// than the bound the medians cannot resolve a change of that size, so the
// row is unresolved unless every run of B beats every run of A.
func judge(workload string, d metricDef, va, vb []float64) compareRow {
	row := compareRow{Workload: workload, Metric: d.Name, A: median(va), B: median(vb)}
	if row.A == 0 {
		row.Verdict = "unresolved"
		return row
	}
	row.Change = (row.B - row.A) / row.A
	if d.Better == "higher" {
		row.Change = -row.Change
	}
	row.Spread = max(quartileSpread(va), quartileSpread(vb))
	sa, sb := append([]float64(nil), va...), append([]float64(nil), vb...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case row.Spread > d.Bound && !allBetter:
		row.Verdict = "unresolved"
	case row.Change > d.Bound:
		row.Verdict = "worse"
	case row.Change < -d.Bound:
		row.Verdict = "better"
	default:
		row.Verdict = "same"
	}
	return row
}
