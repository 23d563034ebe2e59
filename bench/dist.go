package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"sosf"
	"sosf/internal/dist"
)

const distShards = 2

// distRun is the dist_2shard workload: the faults source through a
// coordinator and two single-threaded workers over in-process pipes. It is
// dist.RunLocal rebuilt here so the traced pass can wrap the connections.
type distRun struct {
	src    string
	seed   int64
	rounds int
	setups int
	// reference makes the run replay the source serially afterwards and
	// compare the streams (the single-workload output check); the
	// all-workload mode compares with faults_play's hash instead.
	reference bool
}

// session is one coordinator with its workers, started and not yet joined.
type session struct {
	coord *dist.Coordinator
	rec   *recorder
	conns []dist.Conn
	stats []*connStats // of the coordinator's ends; nil untraced
	begun time.Time    // when Run started
	first chan struct{}
	done  chan error
}

// start builds the coordinator, connects the workers and starts the run. It
// returns once the first RoundEvent has arrived, which is where set-up ends:
// replica builds and the handshake are behind it.
func (d distRun) start(traced bool) (*session, error) {
	s := &session{rec: newRecorder(), first: make(chan struct{}), done: make(chan error, 1)}
	seen := false
	events := func(ev sosf.RoundEvent) {
		s.rec.event(ev)
		if !seen {
			seen = true
			s.rec.mark() // round times are the gaps between events from here on
			close(s.first)
		}
	}
	coord, err := dist.NewCoordinator(dist.Config{
		Source: d.src, Shards: distShards, Seed: d.seed, SeedSet: true,
		Rounds: d.rounds, RoundsSet: true, Threads: 1,
		Events: []func(sosf.RoundEvent){events},
	})
	if err != nil {
		return nil, err
	}
	s.coord = coord
	conns := make([]dist.Conn, distShards)
	workerErrs := make([]error, distShards)
	var wg sync.WaitGroup
	for i := range conns {
		co, wk := net.Pipe()
		conns[i] = co
		if traced {
			st := &connStats{}
			s.stats = append(s.stats, st)
			conns[i] = countingConn{co, st}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = dist.RunWorker(wk, 1, "")
		}(i)
	}
	s.conns = conns
	s.begun = time.Now()
	go func() {
		err := coord.Run(conns)
		wg.Wait()
		for i, werr := range workerErrs {
			if err == nil && werr != nil {
				err = fmt.Errorf("worker %d: %w", i, werr)
			}
		}
		s.done <- err
	}()
	select {
	case <-s.first:
		return s, nil
	case err := <-s.done:
		if err == nil {
			err = fmt.Errorf("run ended before its first round")
		}
		return nil, err
	}
}

// wait joins the coordinator and the workers.
func (s *session) wait() error { return <-s.done }

// abort ends a session early: with its connections closed the coordinator
// and every worker fail out of their current barrier and return.
func (s *session) abort() {
	for _, c := range s.conns {
		c.Close()
	}
	<-s.done
}

func (d distRun) run(tr *Trace) *Result {
	res := &Result{Workload: wDist2Shard, Traced: tr != nil, Ops: d.rounds,
		E2E: map[string]float64{}, Layer: map[string]float64{}}
	defer res.finish()
	start := time.Now()
	fail := func(err error) *Result {
		res.missed("%s: %v", wDist2Shard, err)
		return res
	}

	// A dist run cannot be cut short by its round budget (the coordinator
	// extends it to the scenario horizon), so the set-ups that are only
	// timed are aborted once their first event has arrived.
	var s *session
	var setups []float64
	for i := 0; i < d.setups; i++ {
		last := i == d.setups-1
		heap0 := heapAfterGC()
		t0 := time.Now()
		var err error
		if s, err = d.start(tr != nil && last); err != nil {
			return fail(err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !last {
			s.abort()
			continue
		}
		// All three replicas are live and at full population here, which
		// is the memory a dist run needs; the forced collection lands in
		// the first measured rounds, where the median does not see it.
		res.E2E["heap_mb"] = heapMB(heap0, heapAfterGC())
	}
	res.E2E["setup_s"] = median(setups)

	cpu0, wall0 := cpuTime(), time.Now()
	if err := s.wait(); err != nil {
		res.Failed = d.rounds - len(s.rec.rounds)
		return fail(err)
	}
	cpuPerWall := float64(cpuTime()-cpu0) / float64(time.Since(wall0))
	s.rec.fill(res, 1, 0)
	s.rec.convergedAtEnd(res)
	res.WallS = time.Since(start).Seconds()
	if got := len(s.rec.rounds); got != d.rounds {
		res.Failed += d.rounds - got
		res.missed("%s: %d events for %d rounds", wDist2Shard, got, d.rounds)
	}

	var refP50 float64
	if d.reference {
		ref := playRun{name: wDist2Shard + " serial replay", src: d.src, seed: d.seed, workers: 1, laps: 1, lap: d.rounds, setups: 1}
		refRes := ref.run(nil)
		refP50 = refRes.E2E["round_ms_p50"]
		if refRes.Hash != res.Hash || len(refRes.Checks) > 0 {
			res.missed("%s: stream differs from the serial replay of the same source (%v)", wDist2Shard, refRes.Checks)
		}
	}
	if tr != nil {
		d.probe(s, tr, res, cpuPerWall, refP50)
	}
	return res
}

// probe fills the dist layer's metrics from the counting connections.
func (d distRun) probe(s *session, tr *Trace, res *Result, cpuPerWall, refP50 float64) {
	layer := res.Layer
	rounds := float64(max(len(s.rec.rounds), 1))
	var total connStats
	var handshake time.Time
	for _, st := range s.stats {
		total.ReadBytes += st.ReadBytes
		total.WriteBytes += st.WriteBytes
		total.Writes += st.Writes
		total.ReadWait += st.ReadWait
		total.WriteWait += st.WriteWait
		if st.ThirdReadEnd.After(handshake) {
			handshake = st.ThirdReadEnd
		}
	}
	if !handshake.IsZero() {
		layer["dist.handshake_ms"] = ms(handshake.Sub(s.begun))
		tr.add(0, "dist.handshake", s.begun, handshake, -1)
	}
	layer["dist.wire_bytes_per_round"] = float64(total.ReadBytes+total.WriteBytes) / rounds
	layer["dist.writes_per_round"] = float64(total.Writes) / rounds
	layer["dist.coord_read_wait_ms_per_round"] = ms(total.ReadWait) / rounds
	layer["dist.coord_write_ms_per_round"] = ms(total.WriteWait) / rounds
	layer["dist.cpu_per_wall"] = cpuPerWall
	if refP50 > 0 {
		layer["dist.slowdown_x"] = res.E2E["round_ms_p50"] / refP50
	}
	// One span per round, from the event gaps: the dist round as the
	// coordinator's observer sees it.
	prev := s.rec.rounds[0].at
	for i, r := range s.rec.rounds[1:] {
		tr.add(i+2, "round", prev, r.at, -1)
		prev = r.at
	}
	meterMetrics(s.coord.System(), s.rec, layer)
	scenarioMetrics(s.rec, layer)
	eventMetrics(s.rec, layer)
	layer["dsl.compile_ms"] = probeCompile(tr, d.src)
}

// goldenDist plays a source through the 2-shard path and returns the stream.
func goldenDist(src string) ([]byte, error) {
	var out bytes.Buffer
	_, err := dist.RunLocal(dist.Config{Source: src, Shards: distShards, Threads: 1,
		Events: []func(sosf.RoundEvent){sosf.JSONLSink(&out)}})
	return out.Bytes(), err
}
