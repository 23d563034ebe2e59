package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sosf"
)

// State is a job's position in the lifecycle documented in doc.go.
type State string

// The job states. Paused and evicted differ only in residency: an evicted
// job's run state lives in a checkpoint file instead of memory.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateEvicted State = "evicted"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// terminal reports whether a state accepts no further rounds.
func (s State) terminal() bool { return s == StateDone || s == StateFailed }

// errConflict marks lifecycle requests that the job's current state
// refuses (HTTP 409).
type errConflict struct{ msg string }

func (e errConflict) Error() string { return e.msg }

// Job is one simulation run managed by the server. The mutable fields are
// behind mu; the runner goroutine steps the system under a cancellable
// context, so pause and stop always land on a round boundary.
type Job struct {
	id   string
	srv  *Server
	name string
	spec sosf.RunSpec // the retained build recipe (see parseJobSpec)

	mu       sync.Mutex
	state    State
	sys      *sosf.System // resident run state (nil when pending/evicted/terminal)
	budget   int          // total rounds, play semantics (set at first build)
	round    int          // completed rounds, kept current by the event sink
	err      error        // terminal failure
	report   *sosf.Report // final report, captured at completion
	spool    *spool
	snapPath string // eviction checkpoint (state == evicted)
	touch    int64  // server LRU tick of the last lifecycle access
	cancel   context.CancelFunc
	runDone  chan struct{}
	changed  chan struct{} // closed and replaced on every state transition
	// pendingHeals queues the rounds of self-healing repairs until the
	// next round that reports full convergence, which resolves each into a
	// heal-latency sample for /metrics.
	pendingHeals []int
}

// setStateLocked transitions the state and wakes waiters.
func (j *Job) setStateLocked(s State) {
	j.state = s
	close(j.changed)
	j.changed = make(chan struct{})
}

// buildLocked constructs the job's sosf.System from its retained spec —
// fresh for a first start, from the eviction checkpoint when restore is
// set — and wires the event sink: every round appends the canonical JSONL
// line to the spool, advances the job's round and feeds the server's
// metrics.
func (j *Job) buildLocked(restore bool) error {
	extra := []sosf.Option{sosf.WithRunToEnd()}
	if restore {
		extra = append(extra, sosf.WithRestoreFrom(j.snapPath))
	}
	sys, err := sosf.New(j.spec.Source, j.spec.Options(extra...)...)
	if err != nil {
		return err
	}
	names := sys.ProtocolNames()
	sink := sosf.JSONLSink(j.spool)
	sys.Subscribe(func(ev sosf.RoundEvent) {
		sink(ev)
		j.srv.noteRound(j, sys, names, ev)
	})
	j.sys, j.budget, j.round = sys, sys.PlayHorizon(), sys.Round()
	return nil
}

// start moves a pending, paused, or evicted job to running, restoring the
// eviction checkpoint transparently if needed. Starting a running job is a
// no-op; starting a terminal job is a conflict.
func (j *Job) start() error {
	j.mu.Lock()
	j.touch = j.srv.tickLRU()
	switch j.state {
	case StateRunning:
		j.mu.Unlock()
		return nil
	case StateDone, StateFailed:
		j.mu.Unlock()
		return errConflict{fmt.Sprintf("job %s is %s", j.id, j.state)}
	case StatePending:
		if err := j.buildLocked(false); err != nil {
			j.failLocked(err)
			j.mu.Unlock()
			return err
		}
	case StateEvicted:
		t0 := time.Now()
		if err := j.buildLocked(true); err != nil {
			j.failLocked(fmt.Errorf("restore from %s: %w", j.snapPath, err))
			j.mu.Unlock()
			return err
		}
		j.srv.noteRestore(time.Since(t0))
		os.Remove(j.snapPath) // the checkpoint is consumed; a re-eviction rewrites it
		j.snapPath = ""
	case StatePaused:
		// Resident; just resume.
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.runDone = make(chan struct{})
	j.setStateLocked(StateRunning)
	go j.run(ctx, j.sys, j.budget-j.round, j.runDone)
	j.mu.Unlock()
	j.srv.maybeEvict()
	return nil
}

// run steps the system through the rest of its budget in one StepContext
// call, as `sos play` does. Pause, stop and delete cancel ctx, which the
// engine checks at every round boundary, so rounds never split; a
// cancelled run leaves the state to whoever cancelled it. A run that
// completes while a pause is parking it stays paused at its budget, and
// the next start finishes it.
func (j *Job) run(ctx context.Context, sys *sosf.System, n int, done chan struct{}) {
	defer close(done)
	_, err := sys.StepContext(ctx, n)
	if errors.Is(err, context.Canceled) {
		return
	}
	j.mu.Lock()
	if err != nil || j.state == StateRunning {
		j.finishLocked(err)
	}
	j.mu.Unlock()
}

// noteRound records a completed round from the event sink: it advances
// the job's round and tracks heal-to-reconvergence latency — the round of
// every self-healing repair queues up until the system next reports full
// convergence, at which point each waiting heal contributes (converged
// round − heal round) to the /metrics latency summary. Called on the runner
// goroutine, which never holds j.mu while stepping.
func (j *Job) noteRound(ev sosf.RoundEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.round = ev.Round
	for i := 0; i < ev.Heals; i++ {
		j.pendingHeals = append(j.pendingHeals, ev.Round)
	}
	if ev.Converged && len(j.pendingHeals) > 0 {
		m := &j.srv.metrics
		m.mu.Lock()
		for _, hr := range j.pendingHeals {
			m.healLatSum += int64(ev.Round - hr)
		}
		m.healLatCnt += int64(len(j.pendingHeals))
		m.mu.Unlock()
		j.pendingHeals = j.pendingHeals[:0]
	}
}

// finishLocked retires the job: the final report is captured, the
// in-memory system released (terminal jobs cost no RAM), and the spool
// sealed so followers drain and stop.
func (j *Job) finishLocked(err error) {
	if j.sys != nil {
		j.report = j.sys.Report()
		j.round = j.sys.Round()
		j.sys = nil
	}
	if err != nil {
		j.failLocked(err)
		return
	}
	j.setStateLocked(StateDone)
	j.spool.markDone()
}

func (j *Job) failLocked(err error) {
	j.err = err
	j.sys = nil
	j.setStateLocked(StateFailed)
	j.spool.markDone()
}

// pause parks a running job at the next round boundary and returns once
// the runner has actually parked — callers observe a fully quiescent,
// snapshot-safe job. Pausing a non-running, non-terminal job is a no-op.
func (j *Job) pause() error {
	j.mu.Lock()
	j.touch = j.srv.tickLRU()
	if j.state.terminal() {
		j.mu.Unlock()
		return errConflict{fmt.Sprintf("job %s is %s", j.id, j.state)}
	}
	if j.state != StateRunning {
		j.mu.Unlock()
		return nil
	}
	j.setStateLocked(StatePaused)
	cancel, done := j.cancel, j.runDone
	j.mu.Unlock()
	cancel()
	<-done
	// The runner may have crossed the finish line before the cancel won.
	j.mu.Lock()
	paused := j.state == StatePaused
	j.mu.Unlock()
	if paused {
		j.srv.maybeEvict()
	}
	return nil
}

// stop ends a job early: whatever rounds ran are final, the state becomes
// done, and the event stream terminates. Stopping a terminal job is a
// no-op.
func (j *Job) stop() error {
	j.mu.Lock()
	j.touch = j.srv.tickLRU()
	if j.state.terminal() {
		j.mu.Unlock()
		return nil
	}
	if j.state == StateRunning {
		j.setStateLocked(StatePaused) // park intent; finish below
		cancel, done := j.cancel, j.runDone
		j.mu.Unlock()
		cancel()
		<-done
		j.mu.Lock()
	}
	if !j.state.terminal() {
		if j.snapPath != "" {
			os.Remove(j.snapPath)
			j.snapPath = ""
		}
		j.finishLocked(nil)
	}
	j.mu.Unlock()
	return nil
}

// wait blocks until the job is terminal (or cancel fires) and reports
// whether it got there.
func (j *Job) wait(cancel <-chan struct{}) bool {
	for {
		j.mu.Lock()
		if j.state.terminal() {
			j.mu.Unlock()
			return true
		}
		changed := j.changed
		j.mu.Unlock()
		select {
		case <-changed:
		case <-cancel:
			return false
		}
	}
}

// evict checkpoints a paused job to <dir>/<id>.sosnap and releases its
// in-memory system. Only paused jobs are evictable; anything else reports
// false. On a checkpoint write failure the job stays resident — dropping
// the only copy of the run state is never acceptable.
func (j *Job) evict() (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePaused || j.sys == nil {
		return false, nil
	}
	path := filepath.Join(j.srv.cfg.Dir, j.id+".sosnap")
	if err := j.sys.WriteSnapshot(path); err != nil {
		return false, fmt.Errorf("evict %s: %w", j.id, err)
	}
	j.snapPath = path
	j.sys = nil
	j.setStateLocked(StateEvicted)
	return true, nil
}

// shutdown force-parks the job for server close / delete: the runner is
// cancelled and joined, nothing else changes.
func (j *Job) shutdown() {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.setStateLocked(StatePaused)
	cancel, done := j.cancel, j.runDone
	j.mu.Unlock()
	cancel()
	<-done
}

// remove tears the job down: runner joined, spool closed and deleted,
// eviction checkpoint deleted.
func (j *Job) remove() {
	j.shutdown()
	j.mu.Lock()
	if j.snapPath != "" {
		os.Remove(j.snapPath)
		j.snapPath = ""
	}
	j.sys = nil
	j.mu.Unlock()
	j.spool.close(true)
}

// Status is the wire representation of a job (GET /jobs, GET /jobs/{id},
// POST /jobs responses). Field names are stable API.
type Status struct {
	// ID addresses the job in every /jobs/{id} route.
	ID string `json:"id"`
	// Name labels the job (the topology name unless the spec named it).
	Name string `json:"name"`
	// State is the lifecycle position (see doc.go).
	State State `json:"state"`
	// Round is the number of completed simulation rounds.
	Round int `json:"round"`
	// Budget is the total rounds the job will run (0 until first start:
	// the budget is resolved when the system is built).
	Budget int `json:"budget"`
	// Error carries the failure of a failed job.
	Error string `json:"error,omitempty"`
	// Report is the final report of a done job.
	Report *sosf.Report `json:"report,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:     j.id,
		Name:   j.name,
		State:  j.state,
		Round:  j.round,
		Budget: j.budget,
		Report: j.report,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
