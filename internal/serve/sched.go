package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
)

// sched owns every job's lifecycle under one lock: the registry, one
// FIFO queue per priority class (each with its own admission bound),
// the parked (suspended) jobs and the running set, together with the
// service gauges and counters that describe them. Every API call and
// every worker event goes through step, which changes all of these in
// one critical section, so no reader sees a job in one state and the
// queues or metrics in another. Workers always drain the interactive
// queue before touching the batch queue.
type sched struct {
	store      *runner.Store
	metrics    *metrics
	workers    int
	bounds     map[Priority]int
	retryAfter time.Duration

	mu   sync.Mutex
	cond *sync.Cond // workers wait here for a runnable job
	//ubs:guardedby(mu)
	jobs map[string]*Job
	//ubs:guardedby(mu)
	order []*Job
	// finished lists the retained terminal jobs in the order they
	// finished; past maxFinished the first is forgotten.
	//ubs:guardedby(mu)
	finished []*Job
	// seq numbers the admitted jobs: an ID is never reissued, even
	// after its job is forgotten.
	//ubs:guardedby(mu)
	seq int
	//ubs:guardedby(mu)
	queues map[Priority][]*Job
	// running lists the jobs in state running, in the order their
	// attempts began; preemption picks its victim here.
	//ubs:guardedby(mu)
	running []*Job
	// parked holds the suspended jobs, which bypass admission on resume
	// (their slot was granted at submission).
	//ubs:guardedby(mu)
	parked []parkedJob
	//ubs:guardedby(mu)
	draining bool
	// fx holds the cancel funcs the transitions made under mu owe; a
	// cancel can call back, so unlock runs them once mu is released.
	//ubs:guardedby(mu)
	fx []context.CancelFunc
	wg sync.WaitGroup
}

// maxFinished bounds the terminal jobs ubsd retains, with their event
// logs and result bytes. Queued, running and suspended jobs are always
// kept.
const maxFinished = 1024

// parkedJob is one suspended job. sticky marks an explicit API suspend,
// which waits for Resume; a job the scheduler preempted (sticky false)
// is resumed by the first worker that finds both queues empty. A drain
// resumes both kinds, so it completes parked work instead of stranding
// it.
type parkedJob struct {
	j      *Job
	sticky bool
}

func newSched(store *runner.Store, m *metrics, workers int, bounds map[Priority]int, retryAfter time.Duration) *sched {
	s := &sched{
		store: store, metrics: m, workers: workers,
		bounds: bounds, retryAfter: retryAfter,
		jobs:   map[string]*Job{},
		queues: map[Priority][]*Job{Interactive: nil, Batch: nil},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// evKind names what happened: an API call or a worker event.
type evKind int

const (
	evSubmit  evKind = iota // admission and registration: → queued
	evBegin                 // a worker takes the job: queued → running
	evBeat                  // a heartbeat of the current attempt
	evDone                  // the current attempt returned: running → done | failed | cancelled
	evSuspend               // API suspend: running → suspended until Resume
	evPreempt               // an interactive arrival: running → suspended, resumed when idle
	evResume                // API or idle-worker resume: suspended → queued
	evCancel                // queued | running | suspended → cancelled
	evDrain                 // stop admission (no job)
)

// event is one input to step. Worker events carry the attempt they
// belong to.
type event struct {
	kind    evKind
	attempt int
	run     context.CancelFunc // evBegin: cancels the new attempt
	data    []byte             // evBeat: the heartbeat; evDone: the result
	out     outcome            // evDone
	seconds float64            // evDone: the attempt's wall time
}

// errStale rejects an event that does not apply in the job's current
// state: a suspend of a job that is not running, a resume of one that
// is not suspended, or a worker event of a superseded attempt.
var errStale = errors.New("serve: event does not apply to the job's state")

// step is the job lifecycle. It applies e to j (nil for a drain) and,
// in the same critical section, moves j between the queues, the parked
// list and the running set, sets the queue-depth and in-flight gauges
// to match, counts terminal jobs (forgetting the one that finished
// first once more than maxFinished are retained), and appends j's
// status and end events, so a job's status events are exactly its
// transitions, in order. It returns j's attempt number. The cancel
// funcs a transition owes go to s.fx. Caller holds s.mu, which j.mu
// points at.
//
//ubs:locked(mu, j.mu)
func (s *sched) step(j *Job, e event) (int, error) {
	var to JobState
	ok := true
	switch e.kind {
	case evDrain:
		s.draining = true
		s.cond.Broadcast()
		return 0, nil
	case evSubmit:
		p := j.priority
		if s.draining {
			return 0, ErrDraining
		}
		if bound := s.bounds[p]; len(s.queues[p]) >= bound {
			s.metrics.rejected[p].Inc()
			return 0, &SaturatedError{Priority: p, Bound: bound, RetryAfter: s.retryAfter}
		}
		s.seq++
		j.id = fmt.Sprintf("job-%06d", s.seq)
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.metrics.admitted[p].Inc()
		j.submittedAt = time.Now()
		to = JobQueued
	case evBegin:
		to, ok = JobRunning, j.state == JobQueued
	case evBeat:
		if j.state == JobRunning && e.attempt == j.attempt {
			j.beats++
			j.log.append(Event{Type: "heartbeat", Data: e.data})
		}
		return j.attempt, nil
	case evDone:
		ok = j.state == JobRunning && e.attempt == j.attempt
		switch err := e.out.err; {
		case err == nil:
			to = JobDone
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			to = JobCancelled
		default:
			to = JobFailed
		}
	case evSuspend, evPreempt:
		to, ok = JobSuspended, j.state == JobRunning
	case evResume:
		to, ok = JobQueued, j.state == JobSuspended
	case evCancel:
		to, ok = JobCancelled, !j.state.Terminal()
		e.out.err = context.Canceled
	}
	if !ok {
		return j.attempt, errStale
	}

	// Leave the old state.
	switch j.state {
	case JobQueued:
		s.queues[j.priority] = without(s.queues[j.priority], j)
	case JobRunning:
		s.running = without(s.running, j)
		s.fx = append(s.fx, j.runCancel)
		j.runCancel = nil
	case JobSuspended:
		s.parked = slices.DeleteFunc(s.parked, func(pj parkedJob) bool { return pj.j == j })
	}

	// Enter the new one.
	j.state = to
	switch to {
	case JobQueued:
		s.queues[j.priority] = append(s.queues[j.priority], j)
		s.cond.Signal()
	case JobRunning:
		j.attempt++
		j.runCancel = e.run
		s.running = append(s.running, j)
		if j.startedAt.IsZero() {
			j.startedAt = time.Now() // the first attempt's start
		}
	case JobSuspended:
		s.parked = append(s.parked, parkedJob{j: j, sticky: e.kind == evSuspend})
		s.metrics.suspended.Inc()
		s.cond.Signal()
	default:
		j.err, j.fromCache = e.out.err, e.out.shared
		j.finishedAt = time.Now()
		if to == JobDone {
			// The canonical result bytes, marshalled once, so every
			// reader of this job (and of a job deduped onto the same
			// execution) gets byte-identical JSON.
			j.result, j.resultJSON = &e.out.res, e.data
			if j.beats == 0 {
				// Deduped or cached: no live run fed this job's stream.
				j.beats++
				j.emit("heartbeat", syntheticFinal(j, j.result))
			}
			if e.out.shared {
				s.metrics.deduped.Inc()
			}
			s.metrics.jobSeconds(j.design.Name).Observe(e.seconds)
		}
		s.metrics.finished(to)
		s.fx = append(s.fx, j.cancel)
		s.finished = append(s.finished, j)
		if len(s.finished) > maxFinished {
			old := s.finished[0]
			s.finished = slices.Delete(s.finished, 0, 1)
			delete(s.jobs, old.id)
			i := slices.Index(s.order, old)
			s.order = slices.Delete(s.order, i, i+1)
		}
	}
	s.metrics.queue[Interactive].Set(float64(len(s.queues[Interactive])))
	s.metrics.queue[Batch].Set(float64(len(s.queues[Batch])))
	s.metrics.inflight.Set(float64(len(s.running)))
	j.emit("status", j.statusLocked())
	if to.Terminal() {
		end := struct {
			State JobState `json:"state"`
			Error string   `json:"error,omitempty"`
		}{State: to}
		if j.err != nil {
			end.Error = j.err.Error()
		}
		j.emit("end", end)
		j.log.close()
	}

	// An interactive job that finds more interactive work queued than
	// there are workers not running a job preempts the running batch
	// job that began last, which has the least progress to lose. Its
	// worker unwinds at the next heartbeat boundary and takes the
	// interactive job next.
	if to == JobQueued && j.priority == Interactive && len(s.queues[Interactive]) > s.workers-len(s.running) {
		for i := len(s.running) - 1; i >= 0; i-- {
			if v := s.running[i]; v.priority == Batch {
				s.step(v, event{kind: evPreempt})
				break
			}
		}
	}
	return j.attempt, nil
}

// without removes j from q (from the front without copying).
func without(q []*Job, j *Job) []*Job {
	for i, x := range q {
		if x == j {
			if i == 0 {
				return q[1:]
			}
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// fire applies one event under the lifecycle lock.
func (s *sched) fire(j *Job, e event) error {
	s.mu.Lock()
	defer s.unlock()
	_, err := s.step(j, e)
	return err
}

// unlock releases the lifecycle lock, then runs the cancel funcs the
// transitions made under it owe.
//
//ubs:locked(mu)
func (s *sched) unlock() {
	fx := s.fx
	s.fx = nil
	s.mu.Unlock()
	for _, cancel := range fx {
		cancel()
	}
}

// get looks a job up by id.
func (s *sched) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns every retained job in submission order.
func (s *sched) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// active counts the jobs in a non-terminal state: each is queued,
// running or parked.
func (s *sched) active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[Interactive]) + len(s.queues[Batch]) + len(s.running) + len(s.parked)
}

// start launches the worker pool.
func (s *sched) start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, attempt, ctx := s.take()
				if j == nil {
					return
				}
				s.run(j, attempt, ctx)
			}
		}()
	}
}

// take blocks for the next runnable job and begins an attempt of it:
// interactive before batch, then a parked job a worker may resume on
// its own once both queues are empty. A nil job means the pool is
// draining and nothing is left to run.
func (s *sched) take() (*Job, int, context.Context) {
	s.mu.Lock()
	defer s.unlock()
next:
	for {
		for _, p := range []Priority{Interactive, Batch} {
			if q := s.queues[p]; len(q) > 0 {
				ctx, cancel := context.WithCancel(q[0].ctx)
				j := q[0]
				attempt, _ := s.step(j, event{kind: evBegin, run: cancel})
				return j, attempt, ctx
			}
		}
		for _, pj := range s.parked {
			if !pj.sticky || s.draining {
				s.step(pj.j, event{kind: evResume})
				continue next
			}
		}
		if s.draining {
			return nil, 0, nil
		}
		s.cond.Wait()
	}
}

// wait blocks until every worker has exited.
func (s *sched) wait() { s.wg.Wait() }

// outcome is one finished store call; shared marks a result served from
// the memo, the disk cache, or another job's in-flight execution.
type outcome struct {
	res    sim.Result
	shared bool
	err    error
}

// run executes one attempt of one job through the memoizing store and
// reports how it ended. Identical specs share one execution
// (singleflight) and cached results return immediately. Errors are never
// memoized, so the attempt after a suspension re-runs the point, and
// resumes from its checkpoint when the store has checkpointing enabled.
// An attempt that was suspended or cancelled meanwhile reports into a
// job that has moved on, and step ignores it.
func (s *sched) run(j *Job, attempt int, runCtx context.Context) {
	t0 := time.Now()
	params := j.params
	params.Observer = &jobObserver{s: s, j: j, attempt: attempt}

	// The store call runs in its own goroutine so a cancellation fires
	// promptly even while this job is blocked behind another job's
	// in-flight execution of the same key (the singleflight wait does not
	// observe contexts).
	var o outcome
	for {
		ch := make(chan outcome, 1)
		go func() {
			res, shared, err := s.store.RunWorkloadShared(runCtx, params, j.wl, j.design.Name, j.design.Factory)
			ch <- outcome{res: res, shared: shared, err: err}
		}()
		select {
		case o = <-ch:
		case <-runCtx.Done():
			o = outcome{err: runCtx.Err()}
		}
		// A cancellation error while both of this attempt's contexts are
		// live was inherited from someone else's cancelled flight on the
		// same key (a suspended prior attempt, a cancelled deduped job) —
		// not a verdict on this job. Retry; the stale flight clears as
		// soon as its own store call unwinds.
		if errors.Is(o.err, context.Canceled) && runCtx.Err() == nil && j.ctx.Err() == nil {
			continue
		}
		break
	}
	e := event{kind: evDone, attempt: attempt, out: o, seconds: time.Since(t0).Seconds()}
	if o.err == nil {
		e.data, _ = json.Marshal(&o.res)
	}
	s.fire(j, e)
}
