package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubscache/internal/core"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// stubStore returns a Store whose simulations are fabricated: each
// execution increments calls, then blocks until release is closed (nil
// release → immediate) or the context fires.
func stubStore(calls *atomic.Int64, release <-chan struct{}) *runner.Store {
	s := runner.NewStore("")
	s.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		calls.Add(1)
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
		}
		return sim.Result{
			Workload: w.Name,
			Design:   design,
			Core:     core.Stats{Cycles: 1000, Instructions: 1500},
		}, nil
	}
	return s
}

func testConfig(store *runner.Store, workers int) Config {
	p := sim.DefaultParams()
	p.Warmup, p.Measure = 10_000, 20_000
	return Config{Store: store, Workers: workers, Params: p}
}

func submitOK(t *testing.T, s *Server, req SubmitRequest) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", req, err)
	}
	return j
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.State(); st == want {
			return
		} else if st.Terminal() {
			t.Fatalf("job %s reached terminal state %s, want %s", j.ID(), st, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID(), j.State(), want)
}

// TestDedupIdenticalSpecs is acceptance (a): two submissions of an
// identical job spec execute the simulation once and return
// byte-identical results.
func TestDedupIdenticalSpecs(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 2))
	defer s.Close()

	req := SubmitRequest{Design: "conv:32", Workload: "server_001"}
	a := submitOK(t, s, req)
	b := submitOK(t, s, req)
	if a.Key() != b.Key() {
		t.Fatalf("identical specs got different keys %s vs %s", a.Key(), b.Key())
	}
	waitState(t, a, JobDone)
	waitState(t, b, JobDone)

	if got := calls.Load(); got != 1 {
		t.Fatalf("identical specs executed %d simulations, want 1", got)
	}
	_, ab, ok := a.Result()
	if !ok {
		t.Fatal("job a has no result")
	}
	_, bb, ok := b.Result()
	if !ok {
		t.Fatal("job b has no result")
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("deduped results differ:\n%s\nvs\n%s", ab, bb)
	}
	// At least one of the two was served without a fresh execution.
	if !a.Status().FromCache && !b.Status().FromCache {
		t.Error("neither deduped job reports from_cache")
	}
}

// TestDifferentSpecsRunSeparately guards the inverse: distinct specs must
// not collapse onto one execution.
func TestDifferentSpecsRunSeparately(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 2))
	defer s.Close()

	a := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	b := submitOK(t, s, SubmitRequest{Design: "conv:64", Workload: "server_001"})
	waitState(t, a, JobDone)
	waitState(t, b, JobDone)
	if got := calls.Load(); got != 2 {
		t.Fatalf("distinct specs executed %d simulations, want 2", got)
	}
}

// TestSaturationAndPriority is acceptance (b): submissions beyond the
// configured queue bound are rejected with a SaturatedError (HTTP 429 +
// Retry-After) while interactive jobs still admit ahead of queued batch
// jobs — and run first once a worker frees up.
func TestSaturationAndPriority(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	cfg := testConfig(stubStore(&calls, release), 1)
	cfg.BatchBound = 2
	cfg.InteractiveBound = 4
	cfg.RetryAfter = 3 * time.Second
	s := New(cfg)
	defer s.Close()

	// Occupy the single worker.
	blocker := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001", Priority: Batch})
	waitState(t, blocker, JobRunning)

	// Fill the batch queue to its bound.
	b1 := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_002", Priority: Batch})
	b2 := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_003", Priority: Batch})

	// One past the bound: rejected with the retry hint.
	_, err := s.Submit(SubmitRequest{Design: "conv:32", Workload: "server_004", Priority: Batch})
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("over-bound batch submit returned %v, want SaturatedError", err)
	}
	if sat.RetryAfter != 3*time.Second || sat.Priority != Batch {
		t.Fatalf("saturation hint = %+v, want {batch, 3s}", sat)
	}

	// Interactive still admits while batch is saturated...
	i1 := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_005", Priority: Interactive})

	// ...and dispatches ahead of the earlier-queued batch jobs.
	close(release)
	waitState(t, i1, JobDone)
	waitState(t, b1, JobDone)
	waitState(t, b2, JobDone)
	i1Started, b1Started := i1.Status().StartedAt, b1.Status().StartedAt
	if i1Started == nil || b1Started == nil {
		t.Fatal("missing start timestamps")
	}
	if i1Started.After(*b1Started) {
		t.Errorf("interactive job started %v after queued batch job %v", i1Started, b1Started)
	}
}

// TestCancelRunning is acceptance (c): a cancelled running job stops
// promptly via its context and reports "cancelled".
func TestCancelRunning(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()

	j := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	waitState(t, j, JobRunning)
	if _, changed, err := s.Cancel(j.ID()); err != nil || !changed {
		t.Fatalf("Cancel = (changed=%v, err=%v), want (true, nil)", changed, err)
	}
	waitState(t, j, JobCancelled)
	if st := j.Status(); st.Error == "" {
		t.Error("cancelled job reports no error")
	}
}

// TestCancelQueued: a job cancelled before a worker picks it up
// terminates immediately and never executes.
func TestCancelQueued(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()

	blocker := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	waitState(t, blocker, JobRunning)
	queued := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_002"})
	if _, changed, err := s.Cancel(queued.ID()); err != nil || !changed {
		t.Fatalf("Cancel = (changed=%v, err=%v), want (true, nil)", changed, err)
	}
	waitState(t, queued, JobCancelled)
	close(release)
	waitState(t, blocker, JobDone)
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions, want 1 (cancelled queued job must not run)", got)
	}
}

// TestConcurrentSubmitCancelStatus hammers one job id with simultaneous
// cancel/status readers while other goroutines submit and cancel their
// own jobs — the -race-clean concurrency test for the serving layer.
func TestConcurrentSubmitCancelStatus(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 4))
	defer s.Close()

	target := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				switch k % 3 {
				case 0:
					s.Cancel(target.ID())
				case 1:
					_ = target.Status()
				default:
					wl := fmt.Sprintf("server_%03d", (i+k)%8+1)
					if j, err := s.Submit(SubmitRequest{Design: "conv:32", Workload: wl}); err == nil && k%2 == 0 {
						s.Cancel(j.ID())
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// Everything must settle into a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for s.ActiveJobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs never reached a terminal state", s.ActiveJobs())
		}
		time.Sleep(time.Millisecond)
	}
	for _, j := range s.Jobs() {
		if st := j.State(); !st.Terminal() {
			t.Errorf("job %s left in %s", j.ID(), st)
		}
	}
}

// TestDrain is acceptance (e): a drain stops admission, lets in-flight
// jobs finish, and reports readiness false throughout.
func TestDrain(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	s := New(testConfig(stubStore(&calls, release), 1))

	j := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	waitState(t, j, JobRunning)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Readiness flips promptly; new submissions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for s.Health().Ready() {
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(SubmitRequest{Design: "conv:32", Workload: "server_002"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain returned %v, want ErrDraining", err)
	}

	// The in-flight job finishes (not cancelled) and the drain completes.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil (graceful)", err)
	}
	if st := j.State(); st != JobDone {
		t.Fatalf("in-flight job drained into %s, want done", st)
	}
}

// TestDrainForceCancelsAfterDeadline: when the drain budget expires, the
// stragglers are cancelled rather than leaked.
func TestDrainForceCancelsAfterDeadline(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := New(testConfig(stubStore(&calls, release), 1))

	j := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "server_001"})
	waitState(t, j, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != JobCancelled {
		t.Fatalf("straggler drained into %s, want cancelled", st)
	}
}

// TestSubmitValidation rejects malformed requests up front.
func TestSubmitValidation(t *testing.T) {
	s := New(testConfig(stubStore(new(atomic.Int64), nil), 1))
	defer s.Close()
	for _, req := range []SubmitRequest{
		{},                                       // no design
		{Design: "nope", Workload: "server_001"}, // unknown design
		{Design: "ubs", Workload: "nope"},        // unknown workload
		{Design: "ubs", Workload: "server_001", Priority: "express"},                // unknown class
		{Design: "ubs", Spec: &sim.DesignSpec{Kind: "ubs"}, Workload: "server_001"}, // both forms
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", req)
		}
	}
}

// TestSSEEventsPerJob is acceptance (d) at the event-log level: every
// job's stream carries at least one heartbeat and a terminal "end" event
// — including jobs served straight from the memoizing store, which never
// run a simulation of their own.
func TestSSEEventsPerJob(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 1))
	defer s.Close()

	req := SubmitRequest{Design: "conv:32", Workload: "server_001"}
	first := submitOK(t, s, req)
	waitState(t, first, JobDone)
	second := submitOK(t, s, req) // deduped: result comes from the store
	waitState(t, second, JobDone)

	for _, j := range []*Job{first, second} {
		evs, closed := j.Events().snapshot()
		if !closed {
			t.Fatalf("job %s event log still open after completion", j.ID())
		}
		var beats, ends int
		for _, e := range evs {
			switch e.Type {
			case "heartbeat":
				beats++
			case "end":
				ends++
			}
		}
		if beats < 1 || ends != 1 {
			t.Errorf("job %s stream has %d heartbeats and %d end events, want >=1 and 1",
				j.ID(), beats, ends)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions, want 1", got)
	}
}
