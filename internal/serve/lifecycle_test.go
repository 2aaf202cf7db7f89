package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ubscache/internal/core"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// gate is a stub store whose calls block until the test releases them,
// each with a result or an error, or until the call's context fires.
// Jobs are told apart by their Measure, which the tests keep distinct.
type gate struct {
	mu    sync.Mutex
	calls map[uint64][]*gateCall
}

type gateCall struct {
	ctx   context.Context
	reply chan error
}

func newGate() (*gate, *runner.Store) {
	g := &gate{calls: map[uint64][]*gateCall{}}
	store := runner.NewStore("")
	store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		c := &gateCall{ctx: ctx, reply: make(chan error, 1)}
		g.mu.Lock()
		g.calls[p.Measure] = append(g.calls[p.Measure], c)
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			cs := g.calls[p.Measure]
			for i := range cs {
				if cs[i] == c {
					g.calls[p.Measure] = append(cs[:i], cs[i+1:]...)
					break
				}
			}
		}()
		select {
		case err := <-c.reply:
			if err != nil {
				return sim.Result{}, err
			}
			return sim.Result{Workload: w.Name, Design: design, Core: core.Stats{Cycles: 1000, Instructions: 1500}}, nil
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
	return g, store
}

// live returns the call for measure m whose context is still live.
func (g *gate) live(m uint64) *gateCall {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.calls[m] {
		if c.ctx.Err() == nil {
			return c
		}
	}
	return nil
}

// waitLive blocks until measure m's store call is live.
func (g *gate) waitLive(t *testing.T, m uint64) *gateCall {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c := g.live(m); c != nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live store call for measure %d", m)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// statusTrail returns the states of j's status events, in order.
func statusTrail(t *testing.T, j *Job) []JobState {
	t.Helper()
	evs, _ := j.Events().snapshot()
	var out []JobState
	for _, e := range evs {
		if e.Type != "status" {
			continue
		}
		var st JobStatus
		if err := json.Unmarshal(e.Data, &st); err != nil {
			t.Fatal(err)
		}
		out = append(out, st.State)
	}
	return out
}

// metricsBody reads /metrics through the server's handler.
func metricsBody(s *Server) string {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// lifecycle edges: the arrows of the JobState diagram in api.go.
var lifecycle = map[[2]JobState]bool{
	{JobQueued, JobRunning}: true, {JobQueued, JobCancelled}: true,
	{JobRunning, JobDone}: true, {JobRunning, JobFailed}: true,
	{JobRunning, JobCancelled}: true, {JobRunning, JobSuspended}: true,
	{JobSuspended, JobQueued}: true, {JobSuspended, JobCancelled}: true,
}

// TestCancelWhileUnwinding pins the cancel of a suspended job whose
// worker has not finished unwinding: once the API reports the job
// cancelled, jobs_inflight no longer counts it.
func TestCancelWhileUnwinding(t *testing.T) {
	g, store := newGate()
	s := New(testConfig(store, 1))
	defer s.Close()
	for i := uint64(0); i < 50; i++ {
		m := 20_000 + i
		j := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Measure: m})
		waitState(t, j, JobRunning)
		g.waitLive(t, m)
		if _, ok, _ := s.Suspend(j.ID()); !ok {
			t.Fatalf("iteration %d: Suspend of a running job failed", i)
		}
		if _, ok, _ := s.Cancel(j.ID()); !ok {
			t.Fatalf("iteration %d: Cancel of a suspended job failed", i)
		}
		if st := j.State(); st != JobCancelled {
			t.Fatalf("iteration %d: job is %s after Cancel, want cancelled", i, st)
		}
		if got := promValue(t, metricsBody(s), "ubsd_jobs_inflight"); got != 0 {
			t.Fatalf("iteration %d: the job reads cancelled but ubsd_jobs_inflight = %v, want 0", i, got)
		}
	}
}

// TestResumedJobStaysPreemptible pins the attempt rule: a job suspended
// and resumed onto another worker keeps its place in the running set
// when its old attempt unwinds, so a later interactive arrival can still
// preempt it.
func TestResumedJobStaysPreemptible(t *testing.T) {
	for i := 0; i < 20; i++ {
		g, store := newGate()
		s := New(testConfig(store, 2))
		b := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Measure: 20_000})
		waitState(t, b, JobRunning)
		g.waitLive(t, 20_000)
		if _, ok, _ := s.Suspend(b.ID()); !ok {
			t.Fatal("Suspend of a running job failed")
		}
		if _, ok, _ := s.Resume(b.ID()); !ok {
			t.Fatal("Resume of a suspended job failed")
		}
		waitState(t, b, JobRunning)
		g.waitLive(t, 20_000)

		i1 := submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "client_001", Measure: 20_001, Priority: Interactive})
		waitState(t, i1, JobRunning)
		submitOK(t, s, SubmitRequest{Design: "conv:32", Workload: "client_001", Measure: 20_002, Priority: Interactive})
		if st := b.State(); st != JobSuspended {
			t.Fatalf("run %d: a second interactive arrival on a full pool left the resumed batch job %s, want suspended", i, st)
		}
		s.Close()
	}
}

// TestStatusEventsFollowTransitions churns suspend and resume across
// many jobs and checks each job's status stream: it starts queued, ends
// terminal, and every step is an arrow of the lifecycle diagram, with no
// repeats.
func TestStatusEventsFollowTransitions(t *testing.T) {
	store := runner.NewStore("")
	store.SimWorkload = func(ctx context.Context, _ sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		select {
		case <-time.After(300 * time.Microsecond):
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	s := New(testConfig(store, 4))
	defer s.Close()

	const jobs = 64
	js := make([]*Job, jobs)
	for i := range js {
		js[i] = submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001", Measure: uint64(30_000 + i)})
	}
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; time.Now().Before(stop); k += 7 {
				j := js[k%jobs]
				s.Suspend(j.ID())
				s.Resume(j.ID())
			}
		}(g)
	}
	wg.Wait()
	for _, j := range js {
		waitTerminal(t, j)
		trail := statusTrail(t, j)
		if len(trail) == 0 || trail[0] != JobQueued || !trail[len(trail)-1].Terminal() {
			t.Fatalf("job %s status trail %v: want queued first and a terminal state last", j.ID(), trail)
		}
		for k := 1; k < len(trail); k++ {
			if !lifecycle[[2]JobState{trail[k-1], trail[k]}] {
				t.Fatalf("job %s status trail %v: %s → %s is not a lifecycle edge", j.ID(), trail, trail[k-1], trail[k])
			}
		}
	}
}
