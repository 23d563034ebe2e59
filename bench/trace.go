package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from outside the
// layer. Parent is the index of the enclosing span in the same file (-1 for
// none); Round is the simulation round (or job number) it belongs to, 0 for
// set-up and probes.
type Span struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// Trace collects spans in memory; nothing is written until the run ends.
// A nil *Trace records nothing, which is how the untraced pass runs the
// same code. It is used from one goroutine at a time.
type Trace struct {
	workload string
	epoch    time.Time
	spans    []Span
}

func newTrace(workload string) *Trace {
	return &Trace{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its index for children to name.
func (t *Trace) add(round int, name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{t.workload, round, name,
		start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), parent})
	return len(t.spans) - 1
}

// begin opens a span whose children will name it as parent; end closes it.
func (t *Trace) begin(round int, name string, parent int) int {
	now := time.Now()
	return t.add(round, name, now, now, parent)
}

func (t *Trace) end(span int) {
	if t != nil {
		t.spans[span].EndNS = time.Since(t.epoch).Nanoseconds()
	}
}

// timed runs fn inside a span and returns how long it took.
func (t *Trace) timed(round int, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(round, name, start, end, parent)
	return end.Sub(start)
}

// selfTimes returns, per span, its duration minus the part of it covered by
// its direct children (children are clipped to the parent and overlapping
// children are not double-counted).
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, cursor := int64(0), s.StartNS
		// Children are recorded in end order; walking them by start needs
		// no sort as long as a layer's calls do not overlap, and clipping
		// to the cursor keeps overlapping ones from counting twice.
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNS, cursor), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// byName gathers the durations (ms) of every span with the given name.
func (t *Trace) byName(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines with a self_ns field added.
func (t *Trace) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		line := struct {
			Span
			SelfNS int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
