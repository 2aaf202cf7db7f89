// Package serve is the simulation-as-a-service layer: a long-lived,
// multi-tenant job server that accepts simulation requests over an HTTP
// JSON API, executes them on a bounded worker pool layered over the
// runner's content-hashed memoizing store (identical specs dedupe to one
// execution; cached results return immediately), and streams per-job
// progress as server-sent events carrying the internal/obs heartbeat
// records.
//
// The serving policies are the ones that keep a saturated service
// degrading gracefully instead of collapsing:
//
//   - priority classes: "interactive" jobs are dispatched ahead of every
//     queued "batch" job;
//   - admission control: each class has a bounded queue, and a submission
//     beyond the bound is rejected immediately (HTTP 429 + Retry-After)
//     rather than queued without limit;
//   - cancellation: DELETE /jobs/{id} cancels the job's context, which
//     the simulator observes at its next heartbeat interval;
//   - graceful drain: Drain stops admission (readiness flips to 503),
//     lets queued and in-flight jobs finish, and force-cancels stragglers
//     only after the caller's deadline.
//
// The package sits inside the determinism lint scope: simulation results
// remain pure functions of (spec, workload, design). Wall-clock reads
// here — job timestamps, latency histograms, retry hints — are service
// metadata; the determinism analyzer's clock taint verifies they
// never reach a results artifact, checkpoint image, or stats counter.
package serve

import (
	"fmt"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// Priority is a job's service class. Interactive jobs are dispatched
// ahead of all queued batch jobs; each class has its own admission bound.
type Priority string

// The service classes.
const (
	Interactive Priority = "interactive"
	Batch       Priority = "batch"
)

// valid reports whether p names a known class.
func (p Priority) valid() bool { return p == Interactive || p == Batch }

// JobState is one node of the job lifecycle state machine:
//
//	queued ──→ running ──→ done | failed
//	   ↑           │
//	   │           ↓
//	   └────── suspended
//	   │           │
//	   └───────────┴─────→ cancelled
//
// A running job can be suspended — preempted by the scheduler to make
// room for interactive work, or parked explicitly via the API — and a
// suspended job re-enters the queue (suspended → queued) when resumed.
// With store checkpointing enabled, the suspended attempt's partial
// progress persists on disk and the next attempt resumes from it.
type JobState string

// The job states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSuspended JobState = "suspended"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// SubmitRequest is the POST /jobs body: a design (shorthand or
// declarative spec), a workload (shorthand or declarative spec), optional
// run-length overrides, and a service class.
type SubmitRequest struct {
	// Design is a registry shorthand ("ubs", "conv:64", "ghrp", ... — the
	// same grammar as `ubsim -design`). Exactly one of Design and Spec
	// must be set.
	Design string `json:"design,omitempty"`
	// Spec is the declarative alternative to Design.
	Spec *sim.DesignSpec `json:"spec,omitempty"`
	// Workload is a workload registry shorthand ("server_003",
	// "preset:server_003", "mix:clients.yaml", "champsim:trace.gz" — the
	// same grammar as `ubsim -workload`). Exactly one of Workload and
	// WorkloadSpec must be set.
	Workload string `json:"workload,omitempty"`
	// WorkloadSpec is the declarative alternative to Workload.
	WorkloadSpec *workloadspec.Spec `json:"workload_spec,omitempty"`
	// Warmup and Measure override the default instruction counts (0
	// keeps the defaults).
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// Priority is the service class; empty means "batch".
	Priority Priority `json:"priority,omitempty"`
}

// resolved is a validated SubmitRequest: everything the scheduler needs
// to execute the job, plus the content key identifying its result.
type resolved struct {
	design   sim.Design
	wl       workloadspec.Workload
	params   sim.Params
	priority Priority
	key      string
}

// resolve validates the request against the design and workload
// registries and computes the job's content key. base supplies the system
// parameters requests override.
func (r *SubmitRequest) resolve(base sim.Params) (resolved, error) {
	var (
		d   sim.Design
		err error
	)
	switch {
	case r.Spec != nil && r.Design != "":
		return resolved{}, fmt.Errorf("serve: set design or spec, not both")
	case r.Spec != nil:
		d, err = sim.ResolveDesign(*r.Spec)
	case r.Design != "":
		d, err = sim.ParseDesign(r.Design)
	default:
		return resolved{}, fmt.Errorf("serve: a design is required")
	}
	if err != nil {
		return resolved{}, err
	}
	var wl workloadspec.Workload
	switch {
	case r.WorkloadSpec != nil && r.Workload != "":
		return resolved{}, fmt.Errorf("serve: set workload or workload_spec, not both")
	case r.WorkloadSpec != nil:
		wl, err = workloadspec.ResolveWorkload(*r.WorkloadSpec)
	case r.Workload != "":
		wl, err = workloadspec.ParseWorkload(r.Workload)
	default:
		return resolved{}, fmt.Errorf("serve: a workload is required")
	}
	if err != nil {
		return resolved{}, err
	}
	p := base
	if r.Warmup > 0 {
		p.Warmup = r.Warmup
	}
	if r.Measure > 0 {
		p.Measure = r.Measure
	}
	p.Observer = nil // attached per-execution by the scheduler
	prio := r.Priority
	if prio == "" {
		prio = Batch
	}
	if !prio.valid() {
		return resolved{}, fmt.Errorf("serve: unknown priority %q (have: %s, %s)", prio, Interactive, Batch)
	}
	return resolved{
		design: d, wl: wl, params: p, priority: prio,
		key: runner.WorkloadKey(p, wl, d.Name),
	}, nil
}

// SubmitResponse is the POST /jobs reply.
type SubmitResponse struct {
	ID       string   `json:"id"`
	Key      string   `json:"key"`
	State    JobState `json:"state"`
	Priority Priority `json:"priority"`
}

// JobStatus is the GET /jobs/{id} reply and the "status" SSE event
// payload.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Priority Priority `json:"priority"`
	Design   string   `json:"design"`
	Workload string   `json:"workload"`
	// Key is the content hash identifying the job's simulation point;
	// jobs sharing a key share one execution.
	Key     string `json:"key"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Heartbeats counts the progress events streamed so far.
	Heartbeats int `json:"heartbeats"`
	// FromCache marks a result served by the memoizing store (memory or
	// disk) without a fresh execution on behalf of this job.
	FromCache bool   `json:"from_cache,omitempty"`
	Error     string `json:"error,omitempty"`
}

// ErrSaturated is returned (wrapped in a SaturatedError) when a class
// queue is at its admission bound.
type SaturatedError struct {
	Priority Priority
	Bound    int
	// RetryAfter is the backoff hint relayed as the Retry-After header.
	RetryAfter time.Duration
}

// Error implements error.
func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: %s queue saturated (bound %d); retry after %s",
		e.Priority, e.Bound, e.RetryAfter)
}

// ErrDraining rejects submissions once a drain has begun.
var ErrDraining = fmt.Errorf("serve: draining; not admitting new jobs")
