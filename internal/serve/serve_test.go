package serve

// The serve determinism contract: a job executed by the server — possibly
// concurrently with other jobs, possibly paused, evicted to a snapshot,
// and restored along the way — streams exactly the bytes that
// `sos play -events jsonl` prints for the same source and options. The SSE
// endpoint replays from round 0 at any time, so a follower that watched
// the whole run and a follower that connected after completion see the
// same stream.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sosf"
	"sosf/internal/dsl"
)

func readFixture(t *testing.T, rel string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// do issues a request and decodes the JSON response body into out (if
// non-nil), returning the status code.
func do(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// submit posts a job body (raw DSL or JSON spec) and returns its status.
func submit(t *testing.T, ts *httptest.Server, body []byte, start bool) Status {
	t.Helper()
	url := ts.URL + "/jobs"
	if start {
		url += "?start=1"
	}
	var st Status
	if code := do(t, "POST", url, body, &st); code != http.StatusCreated {
		t.Fatalf("POST /jobs = %d, want 201", code)
	}
	return st
}

// waitDone long-polls /wait and asserts the job ended in state done.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	var st Status
	if code := do(t, "POST", ts.URL+"/jobs/"+id+"/wait", nil, &st); code != http.StatusOK {
		t.Fatalf("POST /jobs/%s/wait = %d, want 200", id, code)
	}
	if st.State != StateDone {
		t.Fatalf("job %s ended %s (round %d/%d, err %q), want done", id, st.State, st.Round, st.Budget, st.Error)
	}
	return st
}

// collectSSE consumes /jobs/{id}/events to its end marker and returns the
// concatenation of all data frames, one line per frame — which must equal
// the JSONL stream of the run.
func collectSSE(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	out, err := collectSSEErr(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectSSEErr(ts *httptest.Server, id string) ([]byte, error) {
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("events Content-Type = %q, want text/event-stream", ct)
	}
	var out bytes.Buffer
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "end":
				return out.Bytes(), nil
			case "error":
				return nil, fmt.Errorf("stream error event: %s", strings.TrimPrefix(line, "data: "))
			default:
				out.WriteString(strings.TrimPrefix(line, "data: "))
				out.WriteByte('\n')
			}
		}
	}
	return nil, fmt.Errorf("stream closed without end event (got %d bytes): %v", out.Len(), sc.Err())
}

// pollStatus re-reads the job status until cond holds or the deadline
// passes.
func pollStatus(t *testing.T, ts *httptest.Server, id string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st Status
		if code := do(t, "GET", ts.URL+"/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d, want 200", id, code)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentJobsMatchGolden is the acceptance test of ISSUE.md: two
// identical jobs running concurrently — one serial, one sharded across
// workers — each stream exactly the committed golden fixture that
// `sos play -events jsonl testdata/playdemo.sos` produces.
func TestConcurrentJobsMatchGolden(t *testing.T) {
	golden := readFixture(t, "testdata/golden/playdemo.events.jsonl")
	src := readFixture(t, "testdata/playdemo.sos")
	_, ts := newTestServer(t, Config{})

	a := submit(t, ts, src, true)
	spec, _ := json.Marshal(JobSpec{Source: string(src), Workers: 2})
	b := submit(t, ts, spec, true)

	waitDone(t, ts, a.ID)
	waitDone(t, ts, b.ID)

	for _, id := range []string{a.ID, b.ID} {
		got := collectSSE(t, ts, id)
		if !bytes.Equal(got, golden) {
			t.Errorf("job %s SSE stream diverges from golden fixture (got %d bytes, want %d)", id, len(got), len(golden))
		}
	}

	var list []Status
	if code := do(t, "GET", ts.URL+"/jobs", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("GET /jobs = %d with %d jobs, want 200 with 2", code, len(list))
	}
	if list[0].ID != a.ID || list[1].ID != b.ID {
		t.Errorf("listing order %s, %s; want submission order %s, %s", list[0].ID, list[1].ID, a.ID, b.ID)
	}
}

// TestEvictionRestoreMidStream pauses a running job, forces it out of
// memory by starting a second job under a MaxResident=1 budget, restores
// it transparently via start, and requires both a follower that watched
// through the eviction and a post-hoc replay to be byte-identical to the
// same run played standalone.
func TestEvictionRestoreMidStream(t *testing.T) {
	src := string(readFixture(t, "testdata/playdemo.sos"))
	const rounds = 400

	// Reference stream: the same source and options played in-process.
	ref, err := sosf.New(src, sosf.WithNodes(0), sosf.WithRounds(rounds), sosf.WithRunToEnd())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	ref.Subscribe(sosf.JSONLSink(&want))
	budget := rounds
	if h := ref.ScenarioHorizon(); h > budget {
		budget = h
	}
	if _, err := ref.Step(budget); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{MaxResident: 1})
	specA, _ := json.Marshal(JobSpec{Source: src, Rounds: intp(rounds)})
	a := submit(t, ts, specA, true)

	// A live follower that must survive pause, eviction, and restore.
	type streamResult struct {
		data []byte
		err  error
	}
	liveCh := make(chan streamResult, 1)
	go func() {
		data, err := collectSSEErr(ts, a.ID)
		liveCh <- streamResult{data, err}
	}()

	// Park the job mid-run (well before its 400-round budget).
	pollStatus(t, ts, a.ID, func(st Status) bool { return st.Round >= 50 })
	var st Status
	if code := do(t, "POST", ts.URL+"/jobs/"+a.ID+"/pause", nil, &st); code != http.StatusOK {
		t.Fatalf("pause = %d, want 200", code)
	}
	if st.State != StatePaused {
		t.Fatalf("after pause: state %s, want paused", st.State)
	}
	pausedAt := st.Round
	if pausedAt >= rounds {
		t.Fatalf("job finished (round %d) before the pause landed; eviction not exercised", pausedAt)
	}

	// A second running job pushes the paused one over the budget.
	b := submit(t, ts, readFixture(t, "testdata/ringpair.sos"), true)
	st = pollStatus(t, ts, a.ID, func(st Status) bool { return st.State == StateEvicted })
	if st.Round != pausedAt {
		t.Errorf("eviction moved the round: %d -> %d", pausedAt, st.Round)
	}
	snap := filepath.Join(srv.cfg.Dir, a.ID+".sosnap")
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("evicted job has no checkpoint: %v", err)
	}

	// Transparent restore: plain start, no snapshot paths in the API.
	if code := do(t, "POST", ts.URL+"/jobs/"+a.ID+"/start", nil, &st); code != http.StatusOK {
		t.Fatalf("start after eviction = %d, want 200", code)
	}
	final := waitDone(t, ts, a.ID)
	if final.Round != budget {
		t.Errorf("restored job ran %d rounds, want %d", final.Round, budget)
	}
	waitDone(t, ts, b.ID)

	live := <-liveCh
	if live.err != nil {
		t.Fatalf("live follower failed: %v", live.err)
	}
	if !bytes.Equal(live.data, want.Bytes()) {
		t.Errorf("live stream across pause/evict/restore diverges from standalone play (%d vs %d bytes)", len(live.data), want.Len())
	}
	if replay := collectSSE(t, ts, a.ID); !bytes.Equal(replay, want.Bytes()) {
		t.Errorf("post-hoc replay diverges from standalone play (%d vs %d bytes)", len(replay), want.Len())
	}

	srv.metrics.mu.Lock()
	evictions, restores := srv.metrics.evictions, srv.metrics.restores
	srv.metrics.mu.Unlock()
	if evictions < 1 {
		t.Errorf("evictions_total = %d, want >= 1", evictions)
	}
	if restores < 1 {
		t.Errorf("restores_total = %d, want >= 1", restores)
	}
}

func intp(v int) *int { return &v }

// promSeries parses Prometheus text exposition format into series values,
// failing the test on any malformed line — this is the /metrics contract
// check of ISSUE.md.
func promSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := make(map[string]float64)
	typed := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(rest) != 2 || (rest[1] != "counter" && rest[1] != "gauge") {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[rest[0]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			if !strings.HasSuffix(base, "}") {
				t.Fatalf("sample %q: unterminated label set", line)
			}
			base = base[:i]
		}
		if !typed[base] {
			t.Fatalf("sample %q precedes its # TYPE header", line)
		}
		series[name] = f
	}
	return series
}

func TestMetricsEndpoint(t *testing.T) {
	src := readFixture(t, "testdata/playdemo.sos")
	srv, ts := newTestServer(t, Config{})
	st := submit(t, ts, src, true)
	waitDone(t, ts, st.ID)
	_ = srv

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := promSeries(t, string(raw))

	if got := series["sosf_serve_rounds_total"]; got != 150 {
		t.Errorf("%s = %g, want 150 (one full playdemo run)", "sosf_serve_rounds_total", got)
	}
	if got := series["sosf_serve_jobs_submitted_total"]; got != 1 {
		t.Errorf("%s = %g, want 1", "sosf_serve_jobs_submitted_total", got)
	}
	for _, state := range allStates {
		key := fmt.Sprintf(`%s{state="%s"}`, "sosf_serve_jobs", state)
		want := 0.0
		if state == StateDone {
			want = 1
		}
		if got, ok := series[key]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", key, got, ok, want)
		}
	}
	// Per-protocol bandwidth: at least one protocol series, all positive,
	// and the protocol names must match the engine's meter.
	protoSeen := 0
	for name, v := range series {
		if strings.HasPrefix(name, "sosf_serve_protocol_bytes_total"+"{") {
			protoSeen++
			if v <= 0 {
				t.Errorf("%s = %g, want > 0", name, v)
			}
		}
	}
	if protoSeen == 0 {
		t.Errorf("no %s series exported", "sosf_serve_protocol_bytes_total")
	}
	if got := series["sosf_serve_uptime_seconds"]; got <= 0 {
		t.Errorf("%s = %g, want > 0", "sosf_serve_uptime_seconds", got)
	}
	if got := series["sosf_serve_rounds_per_second"]; got <= 0 {
		t.Errorf("%s = %g, want > 0", "sosf_serve_rounds_per_second", got)
	}
	// The playdemo blast at round 30 is big enough to trip the runtime's
	// self-healing re-densification, and the run converges afterwards, so
	// both the heal counter and the heal-to-reconvergence latency summary
	// must carry samples.
	if got := series["sosf_serve_heals_total"]; got < 1 {
		t.Errorf("%s = %g, want >= 1 (the playdemo blast heals)", "sosf_serve_heals_total", got)
	}
	if got := series["sosf_serve_heal_latency_rounds_count"]; got < 1 {
		t.Errorf("%s = %g, want >= 1", "sosf_serve_heal_latency_rounds_count", got)
	}
	if cnt := series["sosf_serve_heal_latency_rounds_count"]; cnt > 0 {
		if sum := series["sosf_serve_heal_latency_rounds_sum"]; sum < 0 || sum/cnt > 150 {
			t.Errorf("%s/%s = %g/%g, want a sane mean latency in rounds", "sosf_serve_heal_latency_rounds_sum", "sosf_serve_heal_latency_rounds_count", sum, cnt)
		}
	}
	// Families with no series yet must still be present (scrape-stable).
	if _, ok := series["sosf_serve_evictions_total"]; !ok {
		t.Errorf("untouched counter %s missing from scrape", "sosf_serve_evictions_total")
	}
}

// TestMetricsExposition pins the whole /metrics body after one playdemo
// run: family order, HELP and TYPE lines, series order, the `name 0` line
// of a family with no series, and values past 1e6 in exponent form. Only
// the two clock-derived values are masked.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, readFixture(t, "testdata/playdemo.sos"), true)
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	for i, line := range lines {
		for _, clocked := range []string{"sosf_serve_uptime_seconds ", "sosf_serve_rounds_per_second "} {
			if strings.HasPrefix(line, clocked) {
				lines[i] = clocked + "<masked>\n"
			}
		}
	}
	want := `# HELP sosf_serve_evictions_total Paused jobs checkpointed to disk under the memory budget.
# TYPE sosf_serve_evictions_total counter
sosf_serve_evictions_total 0
# HELP sosf_serve_heal_latency_rounds_count Number of heal latencies in the sum.
# TYPE sosf_serve_heal_latency_rounds_count counter
sosf_serve_heal_latency_rounds_count 3
# HELP sosf_serve_heal_latency_rounds_sum Cumulative rounds from each heal to the next full convergence.
# TYPE sosf_serve_heal_latency_rounds_sum counter
sosf_serve_heal_latency_rounds_sum 46
# HELP sosf_serve_heals_total Self-healing re-densify repairs across all jobs.
# TYPE sosf_serve_heals_total counter
sosf_serve_heals_total 3
# HELP sosf_serve_jobs Jobs currently in each lifecycle state.
# TYPE sosf_serve_jobs gauge
sosf_serve_jobs{state="done"} 1
sosf_serve_jobs{state="evicted"} 0
sosf_serve_jobs{state="failed"} 0
sosf_serve_jobs{state="paused"} 0
sosf_serve_jobs{state="pending"} 0
sosf_serve_jobs{state="running"} 0
# HELP sosf_serve_jobs_submitted_total Total jobs ever submitted.
# TYPE sosf_serve_jobs_submitted_total counter
sosf_serve_jobs_submitted_total 1
# HELP sosf_serve_protocol_bytes_total Total bytes sent per protocol across all jobs.
# TYPE sosf_serve_protocol_bytes_total counter
sosf_serve_protocol_bytes_total{protocol="core"} 6.870894e+06
sosf_serve_protocol_bytes_total{protocol="portconnect"} 68652
sosf_serve_protocol_bytes_total{protocol="portselect"} 2.705599e+06
sosf_serve_protocol_bytes_total{protocol="rps"} 1.039777e+07
sosf_serve_protocol_bytes_total{protocol="uo1"} 6.860021e+06
sosf_serve_protocol_bytes_total{protocol="uo2"} 3.580139e+06
# HELP sosf_serve_restore_seconds_count Number of restore timings in the sum.
# TYPE sosf_serve_restore_seconds_count counter
sosf_serve_restore_seconds_count 0
# HELP sosf_serve_restore_seconds_sum Cumulative seconds spent restoring evicted jobs.
# TYPE sosf_serve_restore_seconds_sum counter
sosf_serve_restore_seconds_sum 0
# HELP sosf_serve_restores_total Evicted jobs restored from their checkpoint.
# TYPE sosf_serve_restores_total counter
sosf_serve_restores_total 0
# HELP sosf_serve_rounds_per_second Rounds executed per second of server uptime.
# TYPE sosf_serve_rounds_per_second gauge
sosf_serve_rounds_per_second <masked>
# HELP sosf_serve_rounds_total Total simulation rounds executed across all jobs.
# TYPE sosf_serve_rounds_total counter
sosf_serve_rounds_total 150
# HELP sosf_serve_uptime_seconds Seconds since the server started.
# TYPE sosf_serve_uptime_seconds gauge
sosf_serve_uptime_seconds <masked>
`
	if got := strings.Join(lines, ""); got != want {
		t.Errorf("/metrics body mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestLifecycleAndErrors(t *testing.T) {
	src := readFixture(t, "testdata/ringpair.sos")
	_, ts := newTestServer(t, Config{})

	// Unknown job ids are 404 on every route.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/jobs/nope"},
		{"POST", "/jobs/nope/start"},
		{"POST", "/jobs/nope/pause"},
		{"POST", "/jobs/nope/stop"},
		{"POST", "/jobs/nope/wait"},
		{"GET", "/jobs/nope/events"},
		{"DELETE", "/jobs/nope"},
	} {
		if code := do(t, probe.method, ts.URL+probe.path, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}

	// A bad spec is a 400 at submission.
	var apiErr map[string]string
	if code := do(t, "POST", ts.URL+"/jobs", []byte("topology oops {"), &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad spec = %d, want 400", code)
	} else if apiErr["error"] == "" {
		t.Errorf("bad spec: no error message in body")
	}

	// So is a timeline that would write a checkpoint, in the raw DSL and
	// the topology JSON forms alike, and no file appears where it points.
	outside := filepath.Join(t.TempDir(), "outside.sosnap")
	snapSrc := withSnapshotAction(outside)
	topo, err := dsl.ParseTopology(snapSrc)
	if err != nil {
		t.Fatal(err)
	}
	asTopology, _ := json.Marshal(JobSpec{Topology: topo})
	for _, body := range [][]byte{[]byte(snapSrc), asTopology} {
		apiErr = nil
		if code := do(t, "POST", ts.URL+"/jobs?start=1", body, &apiErr); code != http.StatusBadRequest {
			t.Errorf("snapshot action = %d, want 400", code)
		}
		if !strings.Contains(apiErr["error"], ErrSnapshotAction.Error()) {
			t.Errorf("snapshot action: error body %q does not name %q", apiErr["error"], ErrSnapshotAction)
		}
	}
	var jobs []Status
	if code := do(t, "GET", ts.URL+"/jobs", nil, &jobs); code != http.StatusOK || len(jobs) != 0 {
		t.Errorf("GET /jobs = %d with %d jobs, want 200 with none", code, len(jobs))
	}
	if _, err := os.Stat(outside); !os.IsNotExist(err) {
		t.Errorf("a refused job wrote %s (stat err = %v)", outside, err)
	}

	// A pending job reports budget 0 and does not run.
	st := submit(t, ts, src, false)
	if st.State != StatePending || st.Round != 0 {
		t.Errorf("submitted job is %s at round %d, want pending at 0", st.State, st.Round)
	}

	// start → done; lifecycle verbs on a terminal job.
	if code := do(t, "POST", ts.URL+"/jobs/"+st.ID+"/start", nil, &st); code != http.StatusOK {
		t.Fatalf("start = %d, want 200", code)
	}
	waitDone(t, ts, st.ID)
	if code := do(t, "POST", ts.URL+"/jobs/"+st.ID+"/start", nil, nil); code != http.StatusConflict {
		t.Errorf("start on done job = %d, want 409", code)
	}
	if code := do(t, "POST", ts.URL+"/jobs/"+st.ID+"/pause", nil, nil); code != http.StatusConflict {
		t.Errorf("pause on done job = %d, want 409", code)
	}
	if code := do(t, "POST", ts.URL+"/jobs/"+st.ID+"/stop", nil, nil); code != http.StatusOK {
		t.Errorf("stop on done job = %d, want 200 (idempotent)", code)
	}

	// Delete removes the job and its files.
	if code := do(t, "DELETE", ts.URL+"/jobs/"+st.ID, nil, nil); code != http.StatusNoContent {
		t.Errorf("delete = %d, want 204", code)
	}
	if code := do(t, "GET", ts.URL+"/jobs/"+st.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("get after delete = %d, want 404", code)
	}
}

// TestStopEndsStreamEarly stops a running job and requires the SSE stream
// to terminate cleanly with whatever rounds completed.
func TestStopEndsStreamEarly(t *testing.T) {
	src := string(readFixture(t, "testdata/playdemo.sos"))
	_, ts := newTestServer(t, Config{})
	spec, _ := json.Marshal(JobSpec{Source: src, Rounds: intp(5000)})
	st := submit(t, ts, spec, true)
	pollStatus(t, ts, st.ID, func(s Status) bool { return s.Round >= 3 })
	if code := do(t, "POST", ts.URL+"/jobs/"+st.ID+"/stop", nil, &st); code != http.StatusOK {
		t.Fatalf("stop = %d, want 200", code)
	}
	if st.State != StateDone {
		t.Fatalf("after stop: %s, want done", st.State)
	}
	stream := collectSSE(t, ts, st.ID)
	lines := bytes.Count(stream, []byte("\n"))
	if lines != st.Round {
		t.Errorf("stream has %d events, status says %d rounds", lines, st.Round)
	}
	if st.Report == nil {
		t.Errorf("stopped job has no final report")
	}
}

// TestDefaultWorkersGOMAXPROCS: `sos serve -workers 0` hands the server
// DefaultWorkers -1, so a job that leaves workers to the server shards its
// rounds across GOMAXPROCS workers, while a job that pins its own count
// keeps it.
func TestDefaultWorkersGOMAXPROCS(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	srv, _ := newTestServer(t, Config{DefaultWorkers: -1})
	rounds := 1 << 20 // still running when paused
	for _, tc := range []struct{ workers, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{3, 3},
	} {
		body, _ := json.Marshal(JobSpec{Source: specTestDSL, Rounds: &rounds, Workers: tc.workers})
		j, err := srv.Submit(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.start(); err != nil {
			t.Fatal(err)
		}
		if err := j.pause(); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		got := j.sys.Engine().Workers()
		j.mu.Unlock()
		if got != tc.want {
			t.Errorf("spec workers %d: engine runs %d workers, want %d", tc.workers, got, tc.want)
		}
		j.stop()
	}
}

// TestNoteRoundAllocationFree: the metrics half of a job's event sink
// reads the finished round's bandwidth from the engine meter in place, so a
// warm round with no heals costs no allocation.
func TestNoteRoundAllocationFree(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	rounds := 10
	body, _ := json.Marshal(JobSpec{Source: specTestDSL, Rounds: &rounds})
	j, err := srv.Submit(body)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	err = j.buildLocked(false)
	sys := j.sys
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(3); err != nil {
		t.Fatal(err)
	}
	names := sys.ProtocolNames()
	ev := sosf.RoundEvent{Round: sys.Round()}
	if allocs := testing.AllocsPerRun(100, func() { srv.noteRound(j, sys, names, ev) }); allocs != 0 {
		t.Errorf("noteRound allocates %v times per round, want 0", allocs)
	}
}
