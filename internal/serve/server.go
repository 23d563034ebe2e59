package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sosf"
)

// allStates drives the jobs-by-state gauge, in label order: every state is
// always exported, zero-valued series included, so dashboards never see
// vanishing series.
var allStates = []State{StateDone, StateEvicted, StateFailed, StatePaused, StatePending, StateRunning}

// maxSpecBytes bounds a POST /jobs body; a topology larger than this is a
// mistake, not a workload.
const maxSpecBytes = 8 << 20

// Config sizes a Server.
type Config struct {
	// Dir holds per-job spools and eviction checkpoints. Created if absent.
	Dir string
	// MaxResident is the memory budget: the maximum number of jobs allowed
	// to keep an in-memory system at once. When the count exceeds it, the
	// least-recently-touched paused jobs are evicted to snapshots. <= 0
	// means unlimited (eviction off).
	MaxResident int
	// DefaultWorkers shards rounds of jobs that do not set workers
	// themselves, with sosf.RunSpec's rule: 0 or 1 runs serially, a
	// negative value selects GOMAXPROCS. Any value is byte-identical.
	DefaultWorkers int
	// Log receives operational messages; nil discards them.
	Log *log.Logger
}

// Server manages a population of simulation jobs over HTTP. See doc.go for
// the job lifecycle and the API surface.
type Server struct {
	cfg      Config // as given, Log defaulted
	metrics  metrics
	started  time.Time
	lruClock atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable GET /jobs listings
	nextID int
}

// NewServer creates the job directory.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = log.New(io.Discard, "", 0)
	}
	return &Server{
		cfg:     cfg,
		metrics: metrics{protocolBytes: make(map[string]int64)},
		started: time.Now(),
		jobs:    make(map[string]*Job),
	}, nil
}

// tickLRU advances the eviction clock; each lifecycle access stamps its job.
func (s *Server) tickLRU() int64 { return s.lruClock.Add(1) }

// noteRound feeds /metrics from a job's event sink: one round executed,
// this round's per-protocol bandwidth from the engine meter, and any
// self-healing repairs (with their heal-to-reconvergence latency tracked
// per job).
func (s *Server) noteRound(j *Job, sys *sosf.System, names []string, ev sosf.RoundEvent) {
	meter := sys.Engine().Meter()
	m := &s.metrics
	m.mu.Lock()
	m.rounds++
	for p, name := range names {
		if b := meter.RoundTotal(ev.Round-1, p); b != 0 {
			m.protocolBytes[name] += b
		}
	}
	m.heals += int64(ev.Heals)
	m.mu.Unlock()
	j.noteRound(ev)
}

// noteRestore records a timed eviction restore.
func (s *Server) noteRestore(d time.Duration) {
	m := &s.metrics
	m.mu.Lock()
	m.restores++
	m.restoreSec += d.Seconds()
	m.mu.Unlock()
}

// Submit registers a new pending job from a POST /jobs body.
func (s *Server) Submit(body []byte) (*Job, error) {
	name, spec, err := parseJobSpec(body)
	if err != nil {
		return nil, err
	}
	if spec.Workers == 0 {
		spec.Workers = s.cfg.DefaultWorkers
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	s.mu.Unlock()
	sp, err := newSpool(filepath.Join(s.cfg.Dir, id+".events.jsonl"))
	if err != nil {
		return nil, err
	}
	j := &Job{
		id:      id,
		srv:     s,
		name:    name,
		spec:    spec,
		state:   StatePending,
		spool:   sp,
		touch:   s.tickLRU(),
		changed: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.metrics.add(&s.metrics.submitted, 1)
	s.cfg.Log.Printf("serve: submitted %s (%s)", id, name)
	return j, nil
}

// job looks a job up by id.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// list snapshots all jobs in submission order.
func (s *Server) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// delete unregisters and tears down a job.
func (s *Server) delete(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	j.remove()
	s.cfg.Log.Printf("serve: deleted %s", id)
	return true
}

// maybeEvict enforces the memory budget: while more jobs hold in-memory
// systems than MaxResident allows, the least-recently-touched paused job is
// checkpointed to disk. Running jobs are never evicted (they would just
// thrash), so a budget fully occupied by running jobs is allowed to stand.
func (s *Server) maybeEvict() {
	if s.cfg.MaxResident <= 0 {
		return
	}
	for {
		resident := 0
		var victim *Job
		var victimTouch int64
		for _, j := range s.list() {
			j.mu.Lock()
			if j.sys != nil {
				resident++
				if j.state == StatePaused && (victim == nil || j.touch < victimTouch) {
					victim, victimTouch = j, j.touch
				}
			}
			j.mu.Unlock()
		}
		if resident <= s.cfg.MaxResident || victim == nil {
			return
		}
		ok, err := victim.evict()
		if err != nil {
			// The job stays resident; over budget beats losing run state.
			s.cfg.Log.Printf("serve: %v", err)
			return
		}
		if !ok {
			return // the victim moved on concurrently; re-counting would spin
		}
		s.metrics.add(&s.metrics.evictions, 1)
		s.cfg.Log.Printf("serve: evicted %s (resident %d > budget %d)", victim.id, resident, s.cfg.MaxResident)
	}
}

// Close parks every running job at its next round boundary and joins the
// runners. Spools and checkpoints stay on disk.
func (s *Server) Close() {
	for _, j := range s.list() {
		j.shutdown()
		j.spool.close(false)
	}
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/start", s.lifecycle((*Job).start))
	mux.HandleFunc("POST /jobs/{id}/pause", s.lifecycle((*Job).pause))
	mux.HandleFunc("POST /jobs/{id}/stop", s.lifecycle((*Job).stop))
	mux.HandleFunc("POST /jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("POST /jobs/{id}/delete", s.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// writeJSON renders v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errCode maps a lifecycle error to its HTTP status.
func errCode(err error) int {
	var c errConflict
	if errors.As(err, &c) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// handleSubmit creates a job from the request body (raw .sos DSL or a JSON
// JobSpec); ?start=1 starts it immediately.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", maxSpecBytes)
		return
	}
	j, err := s.Submit(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if q := r.URL.Query().Get("start"); q == "1" || q == "true" {
		if err := j.start(); err != nil {
			// The job exists (now failed); report both the id and the error.
			writeJSON(w, http.StatusCreated, j.status())
			return
		}
	}
	writeJSON(w, http.StatusCreated, j.status())
}

// handleList returns every job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.list()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// lifecycle adapts a Job method to a POST /jobs/{id}/<verb> handler.
func (s *Server) lifecycle(op func(*Job) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.job(r.PathValue("id"))
		if j == nil {
			httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
			return
		}
		if err := op(j); err != nil {
			httpError(w, errCode(err), "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleWait long-polls until the job is terminal, then returns its status.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if !j.wait(r.Context().Done()) {
		return // client gone
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.delete(id) {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvents streams the job's rounds as server-sent events. The stream
// always replays from round 0 (the spool holds the whole history), then
// follows live until the job is terminal, ending with an `end` event. Each
// data line is exactly the JSONL line `sos play -events jsonl` would print.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	f, err := j.spool.newFollower()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "open event spool: %v", err)
		return
	}
	defer f.close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		chunk, err := f.next(r.Context().Done())
		if err != nil {
			if !errors.Is(err, errFollowCancelled) {
				fmt.Fprintf(w, "event: error\ndata: %s\n\n", err)
				fl.Flush()
			}
			return
		}
		if chunk == nil {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		// chunk is one or more complete JSONL lines; each becomes one SSE
		// data frame carrying the line verbatim (sans its newline).
		for len(chunk) > 0 {
			nl := 0
			for nl < len(chunk) && chunk[nl] != '\n' {
				nl++
			}
			fmt.Fprintf(w, "data: %s\n\n", chunk[:nl])
			if nl < len(chunk) {
				nl++
			}
			chunk = chunk[nl:]
		}
		fl.Flush()
	}
}

// handleMetrics counts the jobs in each state and renders the metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	jobs := make(map[State]int, len(allStates))
	for _, j := range s.list() {
		jobs[j.status().State]++
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, jobs, time.Since(s.started).Seconds())
}
