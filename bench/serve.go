package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sosf"
	"sosf/internal/serve"
)

// serveRun is the serve_jobs workload: an in-process sos serve behind a
// loopback listener and a closed loop of clients, each submitting a job,
// reading its event stream to the end and deleting it.
type serveRun struct {
	spec   []byte // POST /jobs body; src, nodes, rounds and seed are what it says
	src    string
	seed   int64
	jobs   int
	nodes  int
	rounds int // per job
	setups int
	dir    string // parent of the per-server job directories
}

// testbed is one booted server.
type testbed struct {
	srv  *serve.Server
	http *http.Server
	url  string
	dir  string
	done chan struct{} // closed when Serve has returned
}

func bootServer(parent string) (*testbed, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Dir: dir, MaxResident: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	tb := &testbed{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(tb.done)
		_ = tb.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return tb, nil
}

// close stops the HTTP server, parks the jobs and removes the job directory.
func (tb *testbed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tb.http.Shutdown(ctx); err != nil {
		tb.http.Close()
	}
	<-tb.done
	tb.srv.Close()
	os.RemoveAll(tb.dir)
}

// jobTimes are one job's client-side spans.
type jobTimes struct {
	begun                   time.Time
	submit, firstEvent, del time.Duration // each from its own request's start
	latency                 time.Duration // submit → last SSE byte
	delBegun                time.Time
	spool                   int64
}

// stream is the time spent reading events after the submit returned.
func (jt jobTimes) stream() time.Duration { return jt.latency - jt.submit }

// oneJob drives a single job through its life and checks its stream.
// midStream, when set, runs once half of the expected events have arrived.
func (tb *testbed) oneJob(client *http.Client, spec, want []byte, events int, midStream func()) (jobTimes, error) {
	t0 := time.Now()
	jt := jobTimes{begun: t0}
	resp, err := client.Post(tb.url+"/jobs?start=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jt, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return jt, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusCreated || st.ID == "" || st.Error != "" {
		return jt, fmt.Errorf("submit: status %d, job %q, error %q", resp.StatusCode, st.ID, st.Error)
	}
	jt.submit = time.Since(t0)

	resp, err = client.Get(tb.url + "/jobs/" + st.ID + "/events")
	if err != nil {
		return jt, err
	}
	var got bytes.Buffer
	ended, seen := false, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: ") && !ended:
			if seen == 0 {
				jt.firstEvent = time.Since(t0)
			}
			seen++
			got.WriteString(line[len("data: "):])
			got.WriteByte('\n')
			if midStream != nil && seen == events/2 {
				midStream()
			}
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "event: "):
			resp.Body.Close()
			return jt, fmt.Errorf("job %s: stream sent %q", st.ID, line)
		}
		if ended && line == "" {
			break
		}
	}
	resp.Body.Close()
	jt.latency = time.Since(t0)
	if err := sc.Err(); err != nil {
		return jt, fmt.Errorf("job %s: reading stream: %w", st.ID, err)
	}
	if !ended {
		return jt, fmt.Errorf("job %s: stream closed without an end event", st.ID)
	}
	if !bytes.Equal(got.Bytes(), want) {
		return jt, fmt.Errorf("job %s: served stream differs from the in-process reference", st.ID)
	}

	resp, err = client.Get(tb.url + "/jobs/" + st.ID)
	if err != nil {
		return jt, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "done" {
		return jt, fmt.Errorf("job %s: state %q after its stream ended (%v)", st.ID, st.State, err)
	}
	if fi, err := os.Stat(filepath.Join(tb.dir, st.ID+".events.jsonl")); err == nil {
		jt.spool = fi.Size()
	}

	jt.delBegun = time.Now()
	req, err := http.NewRequest(http.MethodDelete, tb.url+"/jobs/"+st.ID, nil)
	if err != nil {
		return jt, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return jt, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return jt, fmt.Errorf("job %s: DELETE returned %d", st.ID, resp.StatusCode)
	}
	jt.del = time.Since(jt.delBegun)
	return jt, nil
}

// reference plays the job spec in process, the way the job loop does, and
// returns the stream every served job must reproduce.
func (s serveRun) reference() (*recorder, time.Duration, error) {
	t0 := time.Now()
	sys, err := sosf.New(s.src, sosf.WithNodes(s.nodes), sosf.WithRunToEnd(),
		sosf.WithRounds(s.rounds), sosf.WithSeed(s.seed))
	if err != nil {
		return nil, 0, err
	}
	rec := newRecorder()
	sys.Subscribe(rec.event)
	for i := 0; i < s.rounds; i++ {
		if err := stepRounds(sys, 1); err != nil {
			return nil, 0, err
		}
	}
	return rec, time.Since(t0), nil
}

func (s serveRun) run(tr *Trace) *Result {
	res := &Result{Workload: wServeJobs, Traced: tr != nil, Ops: s.jobs,
		E2E: map[string]float64{}, Layer: map[string]float64{}}
	defer res.finish()
	start := time.Now()
	fail := func(err error) *Result {
		res.missed("%s: %v", wServeJobs, err)
		return res
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Set-up: the in-process reference, a server boot, and one warm job
	// through the whole HTTP path. The heap is read in the middle of the
	// last set-up's warm job, when exactly one job is resident and running.
	var tb *testbed
	defer func() {
		if tb != nil {
			tb.close()
		}
	}()
	var ref *recorder
	var solo time.Duration
	var setups []float64
	for i := 0; i < s.setups; i++ {
		if tb != nil {
			tb.close()
		}
		heap0 := heapAfterGC()
		t0 := time.Now()
		var err error
		if ref, solo, err = s.reference(); err != nil {
			return fail(err)
		}
		if tb, err = bootServer(s.dir); err != nil {
			return fail(err)
		}
		var mid func()
		if i == s.setups-1 {
			mid = func() { res.E2E["heap_mb"] = heapMB(heap0, heapAfterGC()) }
		}
		if _, err := tb.oneJob(client, s.spec, ref.stream.Bytes(), s.rounds, mid); err != nil {
			return fail(fmt.Errorf("warm job: %w", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.E2E["setup_s"] = median(setups)

	// Measured: a closed loop, one client per CPU up to two (each caller
	// waits for its stream, and more busy goroutines than CPUs would time
	// the scheduler).
	clients := min(2, runtime.NumCPU())
	times := make([]jobTimes, s.jobs)
	errs := make([]error, s.jobs)
	next := make(chan int)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				times[j], errs[j] = tb.oneJob(client, s.spec, ref.stream.Bytes(), s.rounds, nil)
			}
		}()
	}
	for j := 0; j < s.jobs; j++ {
		next <- j
	}
	close(next)
	wg.Wait()
	cpu := cpuTime() - cpu0

	var lat, perRound, rate, submit, first, stream, del []float64
	var spool int64
	for j, jt := range times {
		if errs[j] != nil {
			res.Failed++
			res.missed("%s: job %d: %v", wServeJobs, j+1, errs[j])
			continue
		}
		lat = append(lat, ms(jt.latency))
		perRound = append(perRound, ms(jt.latency)/float64(s.rounds))
		rate = append(rate, float64(s.nodes*s.rounds)/jt.latency.Seconds())
		submit = append(submit, ms(jt.submit))
		first = append(first, ms(jt.firstEvent))
		stream = append(stream, ms(jt.stream()))
		del = append(del, ms(jt.del))
		spool += jt.spool
		job := tr.add(j+1, "serve.job", jt.begun, jt.begun.Add(jt.latency), -1)
		tr.add(j+1, "serve.submit", jt.begun, jt.begun.Add(jt.submit), job)
		tr.add(j+1, "serve.stream", jt.begun.Add(jt.submit), jt.begun.Add(jt.latency), job)
		tr.add(j+1, "serve.delete", jt.delBegun, jt.delBegun.Add(jt.del), -1)
	}
	res.Samples = len(lat)
	res.E2E["round_ms_p50"] = median(perRound)
	res.E2E["node_rounds_per_s"] = median(rate)
	res.E2E["cpu_ms_per_round_p50"] = ms(cpu) / float64(s.jobs*s.rounds)
	res.E2E["sim_bytes_per_node_round"] = ref.meanBytes(0)
	res.E2E["converge_round"] = float64(ref.lastCvg)
	res.Hash = hashOf(ref.stream.Bytes())
	ref.convergedAtEnd(res)
	if p, v, ok := highestPercentile(lat); ok {
		res.Tail = fmt.Sprintf("p%.0f %.2f ms", p, v)
	}
	res.WallS = time.Since(start).Seconds()

	if tr != nil {
		layer := res.Layer
		layer["serve.job_latency_ms_p50"] = median(lat)
		layer["serve.submit_ms_p50"] = median(submit)
		layer["serve.first_event_ms_p50"] = median(first)
		layer["serve.stream_ms_p50"] = median(stream)
		layer["serve.delete_ms_p50"] = median(del)
		layer["serve.spool_bytes_per_job"] = float64(spool) / float64(max(len(lat), 1))
		layer["serve.overhead_x"] = median(lat) / ms(solo)
		if err := tb.scrape(client, tr, layer, s.nodes); err != nil {
			res.missed("%s: %v", wServeJobs, err)
		} else if want := float64((s.jobs + 1) * s.rounds); layer["serve.rounds_total"] != want {
			res.missed("%s: /metrics counts %v rounds, want %v", wServeJobs, layer["serve.rounds_total"], want)
		}
		eventMetrics(ref, layer)
		layer["dsl.compile_ms"] = probeCompile(tr, s.src)
	}
	return res
}

// scrape reads /metrics once: the round counter and the per-protocol bytes.
func (tb *testbed) scrape(client *http.Client, tr *Trace, layer map[string]float64, nodes int) error {
	var body []byte
	var err error
	layer["serve.metrics_scrape_ms"] = ms(tr.timed(0, "serve.metrics_scrape", -1, func() {
		var resp *http.Response
		if resp, err = client.Get(tb.url + "/metrics"); err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}))
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				series[name] = v
			}
		}
	}
	rounds := series["sosf_serve_rounds_total"]
	layer["serve.rounds_total"] = rounds
	for _, def := range perLayer {
		if proto, ok := strings.CutPrefix(def.Name, "meter.bytes_per_node_round."); ok {
			b := series[`sosf_serve_protocol_bytes_total{protocol="`+proto+`"}`]
			layer[def.Name] = b / (max(rounds, 1) * float64(nodes))
		}
	}
	return nil
}
