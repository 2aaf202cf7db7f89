package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// Job is one submitted simulation: its resolved spec, lifecycle state,
// and the event log its SSE subscribers replay. All mutable state is
// guarded by mu; the event log has its own lock so observer callbacks on
// the simulation goroutine never contend with status reads.
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

	mu sync.Mutex
	//ubs:guardedby(mu)
	state JobState
	// finishing marks a terminal transition claimed by finish but not yet
	// published; it keeps the claim exclusive while finish runs the
	// caller's accounting outside mu.
	//ubs:guardedby(mu)
	finishing bool
	// runCancel aborts the current execution attempt only (suspension);
	// cancel above is the job's lifetime and is terminal.
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
	if j.state != JobDone || j.result == nil {
		return nil, nil, false
	}
	return j.result, j.resultJSON, true
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
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

// emitStatus appends a "status" event carrying the current JobStatus.
func (j *Job) emitStatus() {
	data, err := json.Marshal(j.Status())
	if err != nil {
		return
	}
	j.log.append(Event{Type: "status", Data: data})
}

// beginAttempt transitions queued → running and returns a per-attempt
// context: cancelling it (suspension) unwinds only this execution
// attempt, while the job's own ctx stays live for a later resume. A
// false return means the job was cancelled while queued and must not
// run. startedAt records the first attempt only, so suspend/resume
// round-trips do not rewrite the job's history.
func (j *Job) beginAttempt() (context.Context, bool) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return nil, false
	}
	j.state = JobRunning
	runCtx, runCancel := context.WithCancel(j.ctx)
	j.runCancel = runCancel
	if j.startedAt.IsZero() {
		j.startedAt = time.Now()
	}
	j.mu.Unlock()
	j.emitStatus()
	return runCtx, true
}

// suspend transitions running → suspended and aborts the current
// execution attempt; false means the job was not running.
func (j *Job) suspend() bool {
	j.mu.Lock()
	if j.state != JobRunning || j.finishing {
		j.mu.Unlock()
		return false
	}
	j.state = JobSuspended
	runCancel := j.runCancel
	j.runCancel = nil
	j.mu.Unlock()
	if runCancel != nil {
		runCancel()
	}
	j.emitStatus()
	return true
}

// requeue transitions suspended → queued for the next attempt; false
// means the job was not suspended (e.g. cancelled while parked).
func (j *Job) requeue() bool {
	j.mu.Lock()
	if j.state != JobSuspended {
		j.mu.Unlock()
		return false
	}
	j.state = JobQueued
	j.mu.Unlock()
	j.emitStatus()
	return true
}

// heartbeat records one obs heartbeat as an SSE event (called on the
// simulation goroutine via jobObserver).
func (j *Job) heartbeat(hb obs.Heartbeat) {
	data, err := json.Marshal(hb)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.beats++
	j.mu.Unlock()
	j.log.append(Event{Type: "heartbeat", Data: data})
}

// beatCount returns the number of heartbeats streamed so far.
func (j *Job) beatCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.beats
}

// finish moves the job to a terminal state, emits the closing "status"
// and "end" events, and closes the event log. It is idempotent: only the
// first terminal transition wins, and only the winner runs account. It
// runs after the transition is claimed and before the terminal state is
// published, so the service metrics already count the job when any
// reader sees it terminal.
func (j *Job) finish(state JobState, res *sim.Result, fromCache bool, err error, account func()) {
	j.mu.Lock()
	if j.state.Terminal() || j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	j.mu.Unlock()
	account()
	j.mu.Lock()
	j.state, j.err, j.fromCache = state, err, fromCache
	j.finishedAt = time.Now()
	if res != nil {
		j.result = res
		// The canonical result bytes: marshalled once, so every consumer
		// of this job (and of any job deduped onto the same execution)
		// reads byte-identical JSON.
		j.resultJSON, _ = json.Marshal(res)
	}
	j.mu.Unlock()
	j.emitStatus()
	end := struct {
		State JobState `json:"state"`
		Error string   `json:"error,omitempty"`
	}{State: state}
	if err != nil {
		end.Error = err.Error()
	}
	if data, merr := json.Marshal(end); merr == nil {
		j.log.append(Event{Type: "end", Data: data})
	}
	j.log.close()
	j.cancel() // release the context's resources
}

// jobObserver bridges obs run events into the job's SSE stream. EndRun is
// intentionally a no-op: terminal events belong to the scheduler, which
// also owns the deduped/cached paths where no run ever begins.
type jobObserver struct{ j *Job }

var _ obs.Observer = (*jobObserver)(nil)

func (o *jobObserver) BeginRun(obs.RunInfo, *obs.Registry) {}
func (o *jobObserver) Heartbeat(hb *obs.Heartbeat)         { o.j.heartbeat(*hb) }
func (o *jobObserver) EndRun(*obs.Heartbeat, error)        {}

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

// jobRegistry indexes jobs by id in submission order.
type jobRegistry struct {
	mu sync.Mutex
	//ubs:guardedby(mu)
	jobs map[string]*Job
	//ubs:guardedby(mu)
	order []string
	//ubs:guardedby(mu)
	next int
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*Job)}
}

// add assigns the next id and registers the job.
func (r *jobRegistry) add(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	j.id = fmt.Sprintf("job-%06d", r.next)
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
}

// get looks a job up by id.
func (r *jobRegistry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list returns every job in submission order.
func (r *jobRegistry) list() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// active counts jobs in non-terminal states.
func (r *jobRegistry) active() int {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, r.jobs[id])
	}
	r.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if !j.State().Terminal() {
			n++
		}
	}
	return n
}

// sortedIDs returns the registered ids sorted lexically (which matches
// submission order for the zero-padded id format).
func (r *jobRegistry) sortedIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}
