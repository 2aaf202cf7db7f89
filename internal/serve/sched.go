package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
)

// sched is the admission controller and bounded worker pool. Two FIFO
// queues — one per priority class, each with its own admission bound —
// feed the workers; a worker always drains the interactive queue before
// touching the batch queue. Saturation is rejected at submission time
// (SaturatedError) so the service's queueing delay stays bounded, and a
// drain stops admission while letting the queues empty.
type sched struct {
	store      *runner.Store
	metrics    *metrics
	workers    int
	bounds     map[Priority]int
	retryAfter time.Duration

	mu   sync.Mutex
	cond *sync.Cond
	//ubs:guardedby(mu)
	queues map[Priority][]*Job
	//ubs:guardedby(mu)
	reserved map[Priority]int
	// running tracks in-flight jobs so preemption can pick a victim.
	//ubs:guardedby(mu)
	running map[*Job]bool
	// parked holds suspended jobs; they bypass admission on resume —
	// their slot was granted at submission. Scheduler-preempted entries
	// (sticky=false) are auto-resumed as soon as the queues empty;
	// API-suspended entries (sticky=true) wait for an explicit resume,
	// except during a drain, which completes them rather than stranding
	// them.
	//ubs:guardedby(mu)
	parked []parkedJob
	//ubs:guardedby(mu)
	inflight int
	//ubs:guardedby(mu)
	draining bool
	wg       sync.WaitGroup
}

// parkedJob is one suspended job; sticky marks an explicit API suspend.
type parkedJob struct {
	j      *Job
	sticky bool
}

func newSched(store *runner.Store, m *metrics, workers int, bounds map[Priority]int, retryAfter time.Duration) *sched {
	s := &sched{
		store: store, metrics: m, workers: workers,
		bounds: bounds, retryAfter: retryAfter,
		queues:   map[Priority][]*Job{Interactive: nil, Batch: nil},
		reserved: map[Priority]int{},
		running:  map[*Job]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the worker pool.
func (s *sched) start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.next()
				if j == nil {
					return
				}
				s.run(j)
			}
		}()
	}
}

// reserve performs the admission decision for one submission: it fails
// fast when draining or when the class queue (including other
// reservations racing in) is at its bound, and otherwise holds a slot
// until the matching enqueue.
func (s *sched) reserve(p Priority) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	bound := s.bounds[p]
	if depth := len(s.queues[p]) + s.reserved[p]; depth >= bound {
		s.metrics.rejected[p].Inc()
		return &SaturatedError{Priority: p, Bound: bound, RetryAfter: s.retryAfter}
	}
	s.reserved[p]++
	return nil
}

// unreserve releases a reservation whose job was never enqueued.
func (s *sched) unreserve(p Priority) {
	s.mu.Lock()
	s.reserved[p]--
	s.mu.Unlock()
}

// enqueue converts a reservation into a queued job and wakes a worker.
// An interactive arrival that finds every worker busy preempts one
// running batch job: the victim is suspended (its attempt unwinds at
// the next heartbeat boundary) and parked on the preempted list, and
// its worker picks up the interactive job next.
func (s *sched) enqueue(j *Job) {
	s.mu.Lock()
	s.reserved[j.priority]--
	s.queues[j.priority] = append(s.queues[j.priority], j)
	s.metrics.admitted[j.priority].Inc()
	s.updateGaugesLocked()
	var victim *Job
	if j.priority == Interactive && s.inflight >= s.workers {
		for r := range s.running {
			if r.priority == Batch {
				victim = r
				delete(s.running, r)
				break
			}
		}
	}
	s.mu.Unlock()
	if victim != nil {
		s.park(victim, false)
	}
	s.cond.Signal()
}

// park suspends a running job; sticky marks an explicit API suspend
// that must survive idle workers. A job that was no longer running
// (finished or already suspended) is left alone.
func (s *sched) park(j *Job, sticky bool) bool {
	if !j.suspend() {
		return false
	}
	s.metrics.suspended.Inc()
	s.mu.Lock()
	s.parked = append(s.parked, parkedJob{j: j, sticky: sticky})
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// resume moves a suspended job off the parked list back into its
// priority queue; false means the job was not parked (already resumed,
// running, or cancelled). The job re-enters the queue without a new
// admission reservation — its slot was granted at submission.
func (s *sched) resume(j *Job) bool {
	if !s.unpark(j) || !j.requeue() {
		return false
	}
	s.mu.Lock()
	s.queues[j.priority] = append(s.queues[j.priority], j)
	s.updateGaugesLocked()
	s.mu.Unlock()
	s.cond.Signal()
	return true
}

// unpark removes a job from the parked list without requeueing it
// (cancellation, or the first half of resume); false means it was not
// parked.
func (s *sched) unpark(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, pj := range s.parked {
		if pj.j == j {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			return true
		}
	}
	return false
}

// remove deletes a queued job (cancellation while queued); false means
// the job was no longer queued.
func (s *sched) remove(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[j.priority]
	for i, qj := range q {
		if qj == j {
			s.queues[j.priority] = append(q[:i], q[i+1:]...)
			s.updateGaugesLocked()
			return true
		}
	}
	return false
}

// next blocks for the next runnable job, interactive before batch, then
// auto-resumed preempted jobs once both queues are empty; nil means the
// pool is draining and there is nothing left to run. Preempted jobs are
// drained before workers exit, so a graceful drain completes suspended
// work instead of stranding it.
func (s *sched) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for _, p := range []Priority{Interactive, Batch} {
			if q := s.queues[p]; len(q) > 0 {
				j := q[0]
				s.queues[p] = q[1:]
				s.updateGaugesLocked()
				return j
			}
		}
		if j := s.takeParkedLocked(); j != nil {
			// requeue (suspended → queued) makes the job runnable again; a
			// job that was cancelled while parked stays terminal and is
			// skipped. Transitioning outside s.mu keeps the s.mu → j.mu
			// lock order one-way.
			s.mu.Unlock()
			ok := j.requeue()
			s.mu.Lock()
			if ok {
				return j
			}
			continue
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// takeParkedLocked pops the first auto-resumable parked job: any
// scheduler-preempted entry, or — during a drain — API-suspended ones
// too, so a graceful drain completes parked work instead of stranding
// it. Caller holds s.mu.
//
//ubs:locked(mu)
func (s *sched) takeParkedLocked() *Job {
	for i, pj := range s.parked {
		if !pj.sticky || s.draining {
			s.parked = append(s.parked[:i], s.parked[i+1:]...)
			return pj.j
		}
	}
	return nil
}

// drain stops admission and lets the workers exit once the queues empty.
func (s *sched) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wait blocks until every worker has exited.
func (s *sched) wait() { s.wg.Wait() }

// updateGaugesLocked refreshes the queue-depth gauges. Caller holds
// s.mu.
//
//ubs:locked(mu)
func (s *sched) updateGaugesLocked() {
	s.metrics.queue[Interactive].Set(float64(len(s.queues[Interactive])))
	s.metrics.queue[Batch].Set(float64(len(s.queues[Batch])))
}

// inflightAdd tracks the jobs-in-flight gauge (and the running set the
// preemption victim search walks) without a read-modify-write race: both
// live behind the scheduler lock.
func (s *sched) inflightAdd(j *Job, d int) {
	s.mu.Lock()
	s.inflight += d
	if d > 0 {
		s.running[j] = true
	} else {
		delete(s.running, j)
	}
	s.metrics.inflight.Set(float64(s.inflight))
	s.mu.Unlock()
}

// outcome is one finished store call; shared marks a result served from
// the memo, the disk cache, or another job's in-flight execution.
type outcome struct {
	res    sim.Result
	shared bool
	err    error
}

// run executes one attempt of one job through the memoizing store.
// Identical specs share one execution (singleflight) and cached results
// return immediately; in both cases the job still receives a final
// heartbeat so every SSE stream carries at least one heartbeat and a
// terminal event. A suspended attempt (the per-attempt context fired
// while the job's own context is still live) parks the job instead of
// finishing it: errors are never memoized, so the next attempt re-runs
// the point — and resumes from its checkpoint when the store has
// checkpointing enabled.
func (s *sched) run(j *Job) {
	runCtx, ok := j.beginAttempt()
	if !ok {
		return // cancelled while queued
	}
	s.inflightAdd(j, 1)
	release := sync.OnceFunc(func() { s.inflightAdd(j, -1) })
	defer release()

	t0 := time.Now()

	params := j.params
	params.Observer = &jobObserver{j: j}

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

	// Suspension: the per-attempt context fired but the job's own context
	// is live, which only suspend() can produce. Park the job — it is
	// already on the parked list — and release this worker for the
	// interactive job that displaced it.
	if errors.Is(o.err, context.Canceled) && runCtx.Err() != nil && j.ctx.Err() == nil {
		return
	}

	var res *sim.Result
	state := JobFailed
	switch {
	case o.err == nil:
		state, res = JobDone, &o.res
		if j.beatCount() == 0 {
			// Deduped or cached: no live run fed this job's stream.
			j.heartbeat(syntheticFinal(j, res))
		}
	case errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded):
		state = JobCancelled
	}
	// The worker's slot and the terminal counters are released before
	// the terminal state is published (see Job.finish).
	j.finish(state, res, o.shared, o.err, func() {
		release()
		s.metrics.finished(state)
		if state == JobDone {
			if o.shared {
				s.metrics.deduped.Inc()
			}
			s.metrics.jobSeconds(j.design.Name).Observe(time.Since(t0).Seconds())
		}
	})
}
