package serve

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
)

// metrics is the state behind GET /metrics: one field per family, guarded
// by mu. Every job runner, the evictor and the scrape share it.
type metrics struct {
	mu         sync.Mutex
	submitted  int64
	rounds     int64
	heals      int64
	healLatSum int64 // rounds from each heal to the next full convergence
	healLatCnt int64
	evictions  int64
	restores   int64 // also the number of timings in restoreSec
	restoreSec float64
	// protocolBytes totals the bytes each protocol sent across all jobs,
	// by engine protocol name; a protocol is listed once it sent a byte.
	protocolBytes map[string]int64
}

// add increments one of m's counters.
func (m *metrics) add(c *int64, n int64) {
	m.mu.Lock()
	*c += n
	m.mu.Unlock()
}

// write renders every family in Prometheus text exposition format: families
// in name order, series in label order, values as strconv's shortest 'g'
// form. jobs counts the jobs in each state; uptime is in seconds. A family
// with no series yet still shows, as `name 0`, so a scrape before the first
// job carries every exported metric.
func (m *metrics) write(w io.Writer, jobs map[State]int, uptime float64) error {
	var b []byte
	family := func(name, kind, help string) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	}
	sample := func(series string, v float64) {
		b = append(b, series...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	scalar := func(name, kind, help string, v float64) {
		family(name, kind, help)
		sample(name, v)
	}

	m.mu.Lock()
	scalar("sosf_serve_evictions_total", "counter", "Paused jobs checkpointed to disk under the memory budget.", float64(m.evictions))
	scalar("sosf_serve_heal_latency_rounds_count", "counter", "Number of heal latencies in the sum.", float64(m.healLatCnt))
	scalar("sosf_serve_heal_latency_rounds_sum", "counter", "Cumulative rounds from each heal to the next full convergence.", float64(m.healLatSum))
	scalar("sosf_serve_heals_total", "counter", "Self-healing re-densify repairs across all jobs.", float64(m.heals))
	family("sosf_serve_jobs", "gauge", "Jobs currently in each lifecycle state.")
	for _, st := range allStates {
		sample(`sosf_serve_jobs{state="`+string(st)+`"}`, float64(jobs[st]))
	}
	scalar("sosf_serve_jobs_submitted_total", "counter", "Total jobs ever submitted.", float64(m.submitted))
	family("sosf_serve_protocol_bytes_total", "counter", "Total bytes sent per protocol across all jobs.")
	names := make([]string, 0, len(m.protocolBytes))
	for name := range m.protocolBytes {
		names = append(names, name)
	}
	slices.Sort(names)
	if len(names) == 0 {
		sample("sosf_serve_protocol_bytes_total", 0)
	}
	for _, name := range names {
		sample(`sosf_serve_protocol_bytes_total{protocol="`+name+`"}`, float64(m.protocolBytes[name]))
	}
	scalar("sosf_serve_restore_seconds_count", "counter", "Number of restore timings in the sum.", float64(m.restores))
	scalar("sosf_serve_restore_seconds_sum", "counter", "Cumulative seconds spent restoring evicted jobs.", m.restoreSec)
	scalar("sosf_serve_restores_total", "counter", "Evicted jobs restored from their checkpoint.", float64(m.restores))
	rps := 0.0
	if uptime > 0 {
		rps = float64(m.rounds) / uptime
	}
	scalar("sosf_serve_rounds_per_second", "gauge", "Rounds executed per second of server uptime.", rps)
	scalar("sosf_serve_rounds_total", "counter", "Total simulation rounds executed across all jobs.", float64(m.rounds))
	m.mu.Unlock()
	scalar("sosf_serve_uptime_seconds", "gauge", "Seconds since the server started.", uptime)
	_, err := w.Write(b)
	return err
}
