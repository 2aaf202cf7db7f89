package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// Job is one submitted simulation: its resolved spec, its lifecycle
// state, and the event log its SSE subscribers replay. The lifecycle
// fields belong to the server: only sched.step writes them, under the
// one lock every job of a server shares (mu points at it). The event
// log has its own lock, so SSE subscribers never hold up a transition.
type Job struct {
	id       string
	key      string
	priority Priority
	design   sim.Design
	wl       workloadspec.Workload
	params   sim.Params

	ctx    context.Context
	cancel context.CancelFunc
	log    *eventLog

	// mu is the server's lifecycle lock.
	mu *sync.Mutex
	//ubs:guardedby(mu)
	state JobState
	// attempt numbers the job's execution attempts. A worker event
	// carries the number of its attempt; one from an attempt that was
	// suspended or cancelled since changes nothing.
	//ubs:guardedby(mu)
	attempt int
	// runCancel aborts the current attempt only (suspension); cancel
	// above is the job's lifetime and is terminal.
	//ubs:guardedby(mu)
	runCancel context.CancelFunc
	//ubs:guardedby(mu)
	err error
	//ubs:guardedby(mu)
	result *sim.Result
	//ubs:guardedby(mu)
	resultJSON []byte
	//ubs:guardedby(mu)
	beats int
	//ubs:guardedby(mu)
	fromCache bool
	//ubs:guardedby(mu)
	submittedAt time.Time
	//ubs:guardedby(mu)
	startedAt time.Time
	//ubs:guardedby(mu)
	finishedAt time.Time
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Key returns the job's content key (dedup identity).
func (j *Job) Key() string { return j.key }

// Events returns the job's replayable event log.
func (j *Job) Events() *eventLog { return j.log }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the completed result and its canonical JSON encoding;
// ok is false until the job is done.
func (j *Job) Result() (*sim.Result, []byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, nil, false
	}
	return j.result, j.resultJSON, true
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// snapshot returns the job's status and, once it is done, its result
// bytes, both from one critical section.
func (j *Job) snapshot() (JobStatus, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), j.resultJSON
}

// statusLocked builds the JobStatus. Caller holds j.mu.
//
//ubs:locked(mu)
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Priority: j.priority,
		Design: j.design.Name, Workload: j.wl.Name, Key: j.key,
		Warmup: j.params.Warmup, Measure: j.params.Measure,
		SubmittedAt: j.submittedAt, Heartbeats: j.beats,
		FromCache: j.fromCache,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// emit appends one event carrying v's JSON to the job's stream.
func (j *Job) emit(typ string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	j.log.append(Event{Type: typ, Data: data})
}

// jobObserver bridges one attempt's obs run events into the job's SSE
// stream. EndRun is intentionally a no-op: terminal events belong to
// step, which also owns the deduped/cached paths where no run begins.
type jobObserver struct {
	s       *sched
	j       *Job
	attempt int
}

var _ obs.Observer = (*jobObserver)(nil)

func (o *jobObserver) BeginRun(obs.RunInfo, *obs.Registry) {}
func (o *jobObserver) EndRun(*obs.Heartbeat, error)        {}

func (o *jobObserver) Heartbeat(hb *obs.Heartbeat) {
	if data, err := json.Marshal(hb); err == nil {
		o.s.fire(o.j, event{kind: evBeat, attempt: o.attempt, data: data})
	}
}

// syntheticFinal fabricates the final heartbeat for a job whose result
// was served from the memoizing store (deduped or cached), so the SSE
// contract — at least one heartbeat and a terminal event per job — holds
// on every path.
func syntheticFinal(j *Job, res *sim.Result) obs.Heartbeat {
	return obs.Heartbeat{
		Workload: res.Workload, Design: res.Design,
		Phase: "final", Seq: 1,
		Cycles: res.Core.Cycles, Instructions: res.Core.Instructions,
		Target: j.params.Measure,
		IPC:    res.IPC(), RollingIPC: res.IPC(),
		MPKI: res.MPKI(), RollingMPKI: res.MPKI(),
		Fetches: res.ICache.Fetches, Misses: res.ICache.Misses,
		MSHROccupancy: -1, Efficiency: -1, PredictorHitRate: -1,
		BranchMPKI: res.BPU.MPKI(res.Core.Instructions),
	}
}
