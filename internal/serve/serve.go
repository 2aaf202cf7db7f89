package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ubscache/internal/obs"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
)

// Config parameterises a Server. The zero value serves with GOMAXPROCS
// workers, the default queue bounds, and a fresh in-memory store.
type Config struct {
	// Store memoizes and deduplicates executions; nil means a fresh
	// in-memory store (set Store.Dir for a disk-resumable cache).
	Store *runner.Store
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// InteractiveBound and BatchBound cap the per-class queue depth;
	// submissions beyond the bound are rejected with a retry hint
	// (0 = the defaults 64 and 256).
	InteractiveBound int
	BatchBound       int
	// RetryAfter is the backoff hint attached to saturation rejections
	// (0 = 1s).
	RetryAfter time.Duration
	// Params is the base system configuration requests override; the
	// zero value means sim.DefaultParams().
	Params sim.Params
	// HeartbeatEvery is the per-job heartbeat (and cancellation-check)
	// period in cycles (0 keeps the sim default).
	HeartbeatEvery uint64
	// Namespace prefixes the Prometheus metric names (default "ubsd").
	Namespace string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Store == nil {
		out.Store = runner.NewStore("")
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.InteractiveBound <= 0 {
		out.InteractiveBound = 64
	}
	if out.BatchBound <= 0 {
		out.BatchBound = 256
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.Params.Core.FetchWidth == 0 {
		out.Params = sim.DefaultParams()
	}
	if out.HeartbeatEvery > 0 {
		out.Params.HeartbeatEvery = out.HeartbeatEvery
	}
	if out.Namespace == "" {
		out.Namespace = "ubsd"
	}
	return out
}

// Server is the multi-tenant simulation daemon: scheduler + HTTP
// surface. Construct with New, serve Handler, and call Drain for a
// graceful shutdown.
type Server struct {
	cfg     Config
	sched   *sched
	metrics *metrics
	health  *obs.Health

	base       context.Context
	baseCancel context.CancelFunc
}

// New builds and starts a Server (its worker pool runs immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := newMetrics()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		metrics: m,
		health:  obs.NewHealth(),
		sched: newSched(cfg.Store, m, cfg.Workers,
			map[Priority]int{Interactive: cfg.InteractiveBound, Batch: cfg.BatchBound},
			cfg.RetryAfter),
		base: base, baseCancel: cancel,
	}
	s.sched.start()
	return s
}

// Health exposes the server's probe state (/healthz, /readyz).
func (s *Server) Health() *obs.Health { return s.health }

// Submit validates, admits, and enqueues one job. Admission fails with
// *SaturatedError when the class queue is at its bound and ErrDraining
// once a drain has begun.
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	rv, err := req.resolve(s.cfg.Params)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(s.base)
	j := &Job{
		key: rv.key, priority: rv.priority,
		design: rv.design, wl: rv.wl, params: rv.params,
		ctx: ctx, cancel: cancel,
		log: newEventLog(), mu: &s.sched.mu,
	}
	if err := s.sched.fire(j, event{kind: evSubmit}); err != nil {
		cancel()
		return nil, err
	}
	return j, nil
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) { return s.sched.get(id) }

// Jobs lists every retained job in submission order: every queued,
// running and suspended job, and the last 1,024 jobs to finish.
func (s *Server) Jobs() []*Job { return s.sched.list() }

// fire applies one API event to the job with the given id; ok reports
// whether the event applied in the job's state.
func (s *Server) fire(id string, kind evKind) (*Job, bool, error) {
	j, ok := s.sched.get(id)
	if !ok {
		return nil, false, fmt.Errorf("serve: no job %q", id)
	}
	return j, s.sched.fire(j, event{kind: kind}) == nil, nil
}

// Cancel cancels a job: a queued or suspended job terminates at once,
// and a running one too, while its attempt's context fires and the
// simulation unwinds at its next heartbeat interval. A terminal job is
// left untouched (reported by the false return).
func (s *Server) Cancel(id string) (*Job, bool, error) { return s.fire(id, evCancel) }

// Suspend parks a running job: its execution attempt unwinds at the
// next heartbeat boundary and the job waits in the suspended state
// until Resume (or until a drain, which completes parked jobs rather
// than stranding them). The job's partial progress survives on disk
// when the store has checkpointing enabled. false means the job was not
// running.
func (s *Server) Suspend(id string) (*Job, bool, error) { return s.fire(id, evSuspend) }

// Resume moves a suspended job back into its priority queue ahead of
// the scheduler's own lazy resume. false means the job was not
// suspended.
func (s *Server) Resume(id string) (*Job, bool, error) { return s.fire(id, evResume) }

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return !s.health.Ready() }

// Drain gracefully shuts the server down: readiness flips to 503,
// admission stops (submissions fail with ErrDraining), queued, parked
// and in-flight jobs run to completion, and only if ctx expires first
// are the survivors force-cancelled (they finish as "cancelled", which
// the memoizing store does not record, so a restart recomputes them).
// Drain returns nil when the pool wound down before ctx expired.
func (s *Server) Drain(ctx context.Context) error {
	s.health.SetReady(false)
	s.sched.fire(nil, event{kind: evDrain})
	done := make(chan struct{})
	go func() {
		s.sched.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // force-cancel every in-flight job
		<-done
		return ctx.Err()
	}
}

// Close force-cancels everything and waits for the pool; for tests and
// abrupt shutdown paths.
func (s *Server) Close() {
	s.health.SetReady(false)
	s.sched.fire(nil, event{kind: evDrain})
	s.baseCancel()
	s.sched.wait()
}

// ActiveJobs counts jobs that have not reached a terminal state.
func (s *Server) ActiveJobs() int { return s.sched.active() }
