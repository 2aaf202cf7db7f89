package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubscache/internal/core"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// waitTerminal blocks until the job reaches any terminal state.
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want a terminal state", j.ID(), j.State())
	return ""
}

// waitCalls blocks until the stub store has been entered n times. A job
// turns running before its attempt reaches the store, so a test that
// counts attempts waits for the store call itself before suspending;
// otherwise the attempt can be cancelled before it executes at all.
func waitCalls(t *testing.T, calls *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if calls.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("store entered %d times, want %d", calls.Load(), n)
}

// TestSuspendResume pins the basic lifecycle: a running job parks on
// Suspend (its attempt unwinds via the per-attempt context), Resume
// requeues it, and the retried attempt completes normally. Each attempt
// is a separate store execution — errors are never memoized — which is
// what lets a checkpointing store resume the partial work.
func TestSuspendResume(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()

	j := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Priority: Batch})
	waitState(t, j, JobRunning)
	waitCalls(t, &calls, 1)

	if _, ok, err := s.Suspend(j.ID()); err != nil || !ok {
		t.Fatalf("Suspend: ok=%v err=%v", ok, err)
	}
	waitState(t, j, JobSuspended)
	if _, ok, _ := s.Suspend(j.ID()); ok {
		t.Fatal("second Suspend of a suspended job reported ok")
	}

	close(release) // the retried attempt completes immediately
	if _, ok, err := s.Resume(j.ID()); err != nil || !ok {
		t.Fatalf("Resume: ok=%v err=%v", ok, err)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("resumed job finished %s, want done", st)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("suspend/resume executed %d attempts, want 2", got)
	}
}

// TestPreemptionByInteractive pins the scheduler policy the suspended
// state exists for: when every worker is busy with batch work, an
// interactive arrival preempts one batch job (suspended, not
// cancelled), runs, and the batch job is auto-resumed and completed
// once the worker frees up — no Resume call needed.
func TestPreemptionByInteractive(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()

	batch := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Priority: Batch})
	waitState(t, batch, JobRunning)
	waitCalls(t, &calls, 1)

	inter := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "client_001", Priority: Interactive})
	waitState(t, batch, JobSuspended)
	waitState(t, inter, JobRunning)

	close(release)
	if st := waitTerminal(t, inter); st != JobDone {
		t.Fatalf("interactive job finished %s, want done", st)
	}
	if st := waitTerminal(t, batch); st != JobDone {
		t.Fatalf("preempted batch job finished %s, want done", st)
	}
	// Attempts: batch (preempted), interactive, batch again.
	if got := calls.Load(); got != 3 {
		t.Fatalf("preemption executed %d attempts, want 3", got)
	}
}

// TestCancelSuspended pins that a parked job can still be cancelled: it
// finishes directly (no worker owns it) and never runs again.
func TestCancelSuspended(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()

	j := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Priority: Batch})
	waitState(t, j, JobRunning)
	waitCalls(t, &calls, 1)
	if _, ok, err := s.Suspend(j.ID()); err != nil || !ok {
		t.Fatalf("Suspend: ok=%v err=%v", ok, err)
	}
	waitState(t, j, JobSuspended)
	if _, ok, err := s.Cancel(j.ID()); err != nil || !ok {
		t.Fatalf("Cancel of suspended job: ok=%v err=%v", ok, err)
	}
	if st := waitTerminal(t, j); st != JobCancelled {
		t.Fatalf("cancelled suspended job finished %s, want cancelled", st)
	}
	if _, ok, _ := s.Resume(j.ID()); ok {
		t.Fatal("Resume revived a cancelled job")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cancelled suspended job executed %d attempts, want 1", got)
	}
}

// TestHTTPSuspendResume covers the HTTP surface: POST suspend/resume
// round-trip a job and conflict (409) when the state does not match.
func TestHTTPSuspendResume(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Priority: Batch})
	waitState(t, j, JobRunning)
	waitCalls(t, &calls, 1)

	post := func(path string) int {
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/jobs/" + j.ID() + "/resume"); code != http.StatusConflict {
		t.Fatalf("resume of running job: status %d, want 409", code)
	}
	if code := post("/jobs/" + j.ID() + "/suspend"); code != http.StatusOK {
		t.Fatalf("suspend: status %d, want 200", code)
	}
	waitState(t, j, JobSuspended)
	if code := post("/jobs/" + j.ID() + "/suspend"); code != http.StatusConflict {
		t.Fatalf("double suspend: status %d, want 409", code)
	}
	close(release)
	if code := post("/jobs/" + j.ID() + "/resume"); code != http.StatusOK {
		t.Fatalf("resume: status %d, want 200", code)
	}
	if st := waitTerminal(t, j); st != JobDone {
		t.Fatalf("job finished %s, want done", st)
	}
	if code := post("/jobs/nope/suspend"); code != http.StatusNotFound {
		t.Fatalf("suspend of unknown job: status %d, want 404", code)
	}
}

// TestSuspendResumeHammer drives many jobs through concurrent
// suspend/resume/status churn (run under -race in CI). Every job must
// still converge to done: parked jobs are auto-resumed by idle workers,
// and no suspend/resume interleaving may strand or double-finish a job.
func TestSuspendResumeHammer(t *testing.T) {
	var calls atomic.Int64
	store := runner.NewStore("")
	store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		calls.Add(1)
		// Long enough to be suspended mid-flight, short enough that the
		// hammer converges quickly; always honours cancellation.
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return sim.Result{
			Workload: w.Name, Design: design,
			Core: core.Stats{Cycles: 1000, Instructions: 1500},
		}, nil
	}
	s := New(testConfig(store, 4))
	defer s.Close()

	const jobs = 24
	js := make([]*Job, jobs)
	for i := range js {
		// Distinct measure per job keeps the keys distinct, so no two jobs
		// dedup onto one execution and every one exercises the scheduler.
		js[i] = submitOK(t, s, SubmitRequest{
			Design: "ubs", Workload: "server_001", Priority: Batch,
			Measure: uint64(30_000 + i),
		})
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				j := js[(g*13+round)%jobs]
				s.Suspend(j.ID())
				time.Sleep(100 * time.Microsecond)
				s.Resume(j.ID())
				j.Status()
			}
		}(g)
	}
	wg.Wait()

	for _, j := range js {
		if st := waitTerminal(t, j); st != JobDone {
			t.Fatalf("job %s finished %s, want done", j.ID(), st)
		}
	}
	if got := calls.Load(); got < jobs {
		t.Fatalf("hammer executed %d attempts for %d jobs", got, jobs)
	}
}
