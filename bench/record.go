package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"sosf"
)

// Result is one workload's outcome in one pass.
type Result struct {
	Workload string `json:"workload"`
	// Skipped, when set, says why the workload did not run (it then has no
	// metrics: a skipped workload is not reported as flat numbers).
	Skipped string `json:"skipped,omitempty"`
	Traced  bool   `json:"traced"`
	Ops     int    `json:"ops"` // rounds or jobs attempted
	Failed  int    `json:"failed"`
	// Checks lists every output check that missed; any entry fails all ops.
	Checks []string `json:"checks,omitempty"`
	// Hash is the SHA-256 of the workload's whole event stream, and
	// LapHashes the same of the stream up to the end of each lap: the
	// traced pass of a steady workload runs fewer laps, and its stream must
	// be that prefix of the untraced one.
	Hash      string             `json:"hash"`
	LapHashes []string           `json:"lap_hashes,omitempty"`
	Samples   int                `json:"samples"` // per-round (or per-job) timing samples behind the medians
	WallS     float64            `json:"wall_s"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// Tail is the highest percentile of the round (job) time the sample
	// count supports, printed beside the median as context.
	Tail string `json:"tail,omitempty"`
}

func (r *Result) missed(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// finish applies the rule that a missed output check fails every op.
func (r *Result) finish() {
	if len(r.Checks) > 0 {
		r.Failed = r.Ops
	}
	if r.E2E != nil && r.Ops > 0 {
		r.E2E[failedOps] = float64(r.Failed) / float64(r.Ops)
	}
}

// roundSample is what the recorder keeps per event beside the bytes.
type roundSample struct {
	at      time.Time
	nodes   int
	bytes   float64 // baseline + overhead bytes per node this round
	action  bool
	heals   int
	lineEnd int // offset in the stream just past this event's line
}

// recorder is the event subscriber every workload shares: it encodes each
// event as `sos play -events jsonl` would, keeps the stream for the output
// checks, and timestamps the event so round times can be read off the gaps.
type recorder struct {
	stream  bytes.Buffer
	sink    func(sosf.RoundEvent)
	rounds  []roundSample
	last    sosf.RoundEvent // the most recent event, for the encode probe
	lastCvg int             // round of the most recent unconverged→converged flip
	cvg     bool            // converged at the latest event
	// onEvent, when set, runs first in the callback (the traced pass marks
	// the end of the observer tail with it).
	onEvent func()
	// prev is the time and CPU reading the next round's gap is taken from;
	// mark resets it at the start of a measured stretch.
	prevAt  time.Time
	prevCPU time.Duration
	wall    []float64 // ms per measured round
	cpu     []float64 // CPU ms per measured round
	rate    []float64 // alive nodes / round seconds
}

func newRecorder() *recorder {
	r := &recorder{}
	r.sink = sosf.JSONLSink(&r.stream)
	return r
}

// mark starts a measured stretch: the next event's gap is taken from now.
func (r *recorder) mark() {
	r.prevAt, r.prevCPU = time.Now(), cpuTime()
}

// unmark ends it: events until the next mark are recorded but not timed.
func (r *recorder) unmark() { r.prevAt = time.Time{} }

func (r *recorder) event(ev sosf.RoundEvent) {
	if r.onEvent != nil {
		r.onEvent()
	}
	r.sink(ev)
	now, cpu := time.Now(), cpuTime()
	if ev.Converged && !r.cvg {
		r.lastCvg = ev.Round
	}
	r.cvg, r.last = ev.Converged, ev
	r.rounds = append(r.rounds, roundSample{
		at: now, nodes: ev.Nodes, bytes: ev.BaselineBytes + ev.OverheadBytes,
		action: len(ev.Actions) > 0, heals: ev.Heals, lineEnd: r.stream.Len(),
	})
	if !r.prevAt.IsZero() {
		d := now.Sub(r.prevAt)
		r.wall = append(r.wall, ms(d))
		r.cpu = append(r.cpu, ms(cpu-r.prevCPU))
		r.rate = append(r.rate, float64(ev.Nodes)/d.Seconds())
		r.prevAt, r.prevCPU = now, cpu
	}
}

// prefix is the stream up to and including the n-th recorded event.
func (r *recorder) prefix(n int) []byte {
	if n <= 0 || n > len(r.rounds) {
		return nil
	}
	return r.stream.Bytes()[:r.rounds[n-1].lineEnd]
}

func hashOf(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:])
}

// meanBytes is the paper's Fig. 4 statistic over the events from index
// `from` on: mean bytes per node per round.
func (r *recorder) meanBytes(from int) float64 {
	var sum float64
	for _, s := range r.rounds[from:] {
		sum += s.bytes
	}
	if n := len(r.rounds) - from; n > 0 {
		return sum / float64(n)
	}
	return 0
}

// lapMedian is the median of per-lap medians when the samples came in
// equal laps, and the plain median otherwise — robust to one disturbed lap.
func lapMedian(samples []float64, laps int) float64 {
	if laps <= 1 || len(samples)%laps != 0 {
		return median(samples)
	}
	per := len(samples) / laps
	meds := make([]float64, laps)
	for i := range meds {
		meds[i] = median(samples[i*per : (i+1)*per])
	}
	return median(meds)
}

// fill writes the recorder's share of the end-to-end metrics.
func (r *recorder) fill(res *Result, laps, measuredFrom int) {
	res.Samples = len(r.wall)
	res.E2E["round_ms_p50"] = lapMedian(r.wall, laps)
	res.E2E["node_rounds_per_s"] = lapMedian(r.rate, laps)
	res.E2E["cpu_ms_per_round_p50"] = lapMedian(r.cpu, laps)
	res.E2E["sim_bytes_per_node_round"] = r.meanBytes(measuredFrom)
	res.E2E["converge_round"] = float64(r.lastCvg)
	res.Hash = hashOf(r.stream.Bytes())
	for lap := 1; lap <= laps; lap++ {
		res.LapHashes = append(res.LapHashes, hashOf(r.prefix(measuredFrom+lap*(len(r.rounds)-measuredFrom)/laps)))
	}
	if p, v, ok := highestPercentile(r.wall); ok {
		res.Tail = fmt.Sprintf("p%.0f %.2f ms", p, v)
	}
}

// convergedAtEnd is the output check of the workloads that play a whole
// timeline: the run must leave every sub-procedure at accuracy 1.0.
func (r *recorder) convergedAtEnd(res *Result) {
	if !r.cvg {
		res.missed("%s: end state is not converged after %d rounds", res.Workload, len(r.rounds))
	}
}

// memDelta reads the allocator counters the sim-memory metrics are deltas of.
type memDelta struct{ m runtime.MemStats }

func (d *memDelta) start() { runtime.ReadMemStats(&d.m) }

func (d *memDelta) fill(layer map[string]float64, rounds int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(max(rounds, 1))
	layer["sim.allocs_per_round"] = float64(now.Mallocs-d.m.Mallocs) / n
	layer["sim.alloc_bytes_per_round"] = float64(now.TotalAlloc-d.m.TotalAlloc) / n
	layer["sim.gc_cycles"] = float64(now.NumGC - d.m.NumGC)
	layer["sim.gc_pause_ms"] = float64(now.PauseTotalNs-d.m.PauseTotalNs) / 1e6
}
