package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// mjob is one job of the abstract lifecycle model.
type mjob struct {
	j       *Job
	measure uint64
	prio    Priority
	state   JobState
	sticky  bool
	trail   []JobState
}

// model is the abstract lifecycle: what the scheduler promises, written
// without its locks, goroutines or store.
type model struct {
	workers  int
	bounds   map[Priority]int
	draining bool
	jobs     []*mjob
	queues   map[Priority][]*mjob
	running  []*mjob
	parked   []*mjob
	counts   map[string]float64
}

// move is one transition: leave the old state, enter the new one.
func (m *model) move(j *mjob, to JobState, sticky bool) {
	is := func(x *mjob) bool { return x == j }
	switch j.state {
	case JobQueued:
		m.queues[j.prio] = slices.DeleteFunc(m.queues[j.prio], is)
	case JobRunning:
		m.running = slices.DeleteFunc(m.running, is)
	case JobSuspended:
		m.parked = slices.DeleteFunc(m.parked, is)
	}
	j.state = to
	j.trail = append(j.trail, to)
	switch to {
	case JobQueued:
		m.queues[j.prio] = append(m.queues[j.prio], j)
		if j.prio == Interactive && len(m.queues[Interactive]) > m.workers-len(m.running) {
			for i := len(m.running) - 1; i >= 0; i-- {
				if v := m.running[i]; v.prio == Batch {
					m.move(v, JobSuspended, false)
					break
				}
			}
		}
	case JobRunning:
		m.running = append(m.running, j)
	case JobSuspended:
		j.sticky = sticky
		m.parked = append(m.parked, j)
		m.counts["ubsd_jobs_suspended"]++
	default:
		m.counts["ubsd_jobs_"+string(to)]++
	}
}

// settle lets the free workers take work: queued jobs, interactive
// first, then parked jobs a worker resumes on its own.
func (m *model) settle() {
next:
	for m.workers-len(m.running) > 0 {
		for _, p := range []Priority{Interactive, Batch} {
			if q := m.queues[p]; len(q) > 0 {
				m.move(q[0], JobRunning, false)
				continue next
			}
		}
		for _, p := range m.parked {
			if !p.sticky || m.draining {
				m.move(p, JobQueued, false)
				continue next
			}
		}
		return
	}
}

// TestLifecycleModel drives seeded random sequences of submissions of
// both classes, suspends, resumes, cancels, interactive preemptions, a
// drain and store completions against the abstract model. After every
// step the job states, the queue and in-flight gauges, the counters and
// every job's status events must match it.
func TestLifecycleModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runLifecycleModel(t, seed, 80) })
	}
}

func runLifecycleModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	g, store := newGate()
	cfg := testConfig(store, 1+rng.Intn(3))
	cfg.InteractiveBound, cfg.BatchBound = 2, 3
	s := New(cfg)
	defer s.Close()
	m := &model{
		workers: cfg.Workers,
		bounds:  map[Priority]int{Interactive: 2, Batch: 3},
		queues:  map[Priority][]*mjob{},
		counts:  map[string]float64{},
	}
	var drained chan error
	var log []string

	pick := func() *mjob {
		if len(m.jobs) == 0 {
			return nil
		}
		return m.jobs[rng.Intn(len(m.jobs))]
	}
	check := func() {
		t.Helper()
		m.settle()
		deadline := time.Now().Add(5 * time.Second)
		for {
			settled := true
			for _, j := range m.jobs {
				if j.j.State() != j.state || (j.state == JobRunning && g.live(j.measure) == nil) {
					settled = false
					break
				}
			}
			if settled {
				break
			}
			if time.Now().After(deadline) {
				var got []string
				for _, j := range m.jobs {
					got = append(got, fmt.Sprintf("%s:%s/model %s", j.j.ID(), j.j.State(), j.state))
				}
				t.Fatalf("never settled on the model after %v:\n%s", log, strings.Join(got, "\n"))
			}
			time.Sleep(50 * time.Microsecond)
		}
		prom := metricsBody(s)
		want := map[string]float64{
			"ubsd_queue_depth_interactive": float64(len(m.queues[Interactive])),
			"ubsd_queue_depth_batch":       float64(len(m.queues[Batch])),
			"ubsd_jobs_inflight":           float64(len(m.running)),
		}
		for _, name := range []string{"done", "failed", "cancelled", "suspended", "admitted_interactive", "admitted_batch", "rejected_interactive", "rejected_batch"} {
			want["ubsd_jobs_"+name] = m.counts["ubsd_jobs_"+name]
		}
		for name, v := range want {
			if got := promValue(t, prom, name); got != v {
				t.Fatalf("after %v: %s = %v, model %v", log, name, got, v)
			}
		}
		active := 0
		for _, j := range m.jobs {
			if !j.state.Terminal() {
				active++
			}
			if got := statusTrail(t, j.j); fmt.Sprint(got) != fmt.Sprint(j.trail) {
				t.Fatalf("after %v: job %s status events %v, model %v", log, j.j.ID(), got, j.trail)
			}
		}
		if got := s.ActiveJobs(); got != active {
			t.Fatalf("after %v: ActiveJobs = %d, model %d", log, got, active)
		}
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 30: // submit
			prio := Batch
			if rng.Intn(3) == 0 {
				prio = Interactive
			}
			measure := uint64(20_000 + step)
			log = append(log, fmt.Sprintf("submit %s", prio))
			j, err := s.Submit(SubmitRequest{Design: "ubs", Workload: "server_001", Measure: measure, Priority: prio})
			var sat *SaturatedError
			switch {
			case m.draining:
				if !errors.Is(err, ErrDraining) {
					t.Fatalf("after %v: Submit while draining = %v, want ErrDraining", log, err)
				}
			case len(m.queues[prio]) >= m.bounds[prio]:
				if !errors.As(err, &sat) {
					t.Fatalf("after %v: Submit over the bound = %v, want SaturatedError", log, err)
				}
				m.counts["ubsd_jobs_rejected_"+string(prio)]++
			default:
				if err != nil {
					t.Fatalf("after %v: Submit = %v", log, err)
				}
				mj := &mjob{j: j, measure: measure, prio: prio}
				m.jobs = append(m.jobs, mj)
				m.counts["ubsd_jobs_admitted_"+string(prio)]++
				m.move(mj, JobQueued, false)
			}
		case r < 45: // suspend
			j := pick()
			if j == nil {
				continue
			}
			log = append(log, "suspend "+j.j.ID())
			_, ok, _ := s.Suspend(j.j.ID())
			if want := j.state == JobRunning; ok != want {
				t.Fatalf("after %v: Suspend ok=%v in state %s", log, ok, j.state)
			}
			if ok {
				m.move(j, JobSuspended, true)
			}
		case r < 58: // resume
			j := pick()
			if j == nil {
				continue
			}
			log = append(log, "resume "+j.j.ID())
			_, ok, _ := s.Resume(j.j.ID())
			if want := j.state == JobSuspended; ok != want {
				t.Fatalf("after %v: Resume ok=%v in state %s", log, ok, j.state)
			}
			if ok {
				m.move(j, JobQueued, false)
			}
		case r < 68: // cancel
			j := pick()
			if j == nil {
				continue
			}
			log = append(log, "cancel "+j.j.ID())
			_, ok, _ := s.Cancel(j.j.ID())
			if want := !j.state.Terminal(); ok != want {
				t.Fatalf("after %v: Cancel ok=%v in state %s", log, ok, j.state)
			}
			if ok {
				m.move(j, JobCancelled, false)
			}
		case r < 98: // a store call returns
			if len(m.running) == 0 {
				continue
			}
			j := m.running[rng.Intn(len(m.running))]
			var err error
			to := JobDone
			if rng.Intn(4) == 0 {
				err, to = errors.New("synthetic failure"), JobFailed
			}
			log = append(log, fmt.Sprintf("complete %s %s", j.j.ID(), to))
			g.live(j.measure).reply <- err
			m.move(j, to, false)
			// The transition lands when the worker reports back.
			waitTerminal(t, j.j)
		default: // drain, once
			if m.draining {
				continue
			}
			log = append(log, "drain")
			s.sched.fire(nil, event{kind: evDrain})
			m.draining = true
			drained = make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				drained <- s.Drain(ctx)
			}()
		}
		check()
	}

	// Run everything left to completion.
	for {
		if len(m.parked) > 0 {
			j := m.parked[0]
			log = append(log, "resume "+j.j.ID())
			if _, ok, _ := s.Resume(j.j.ID()); !ok {
				t.Fatalf("after %v: Resume of a suspended job failed", log)
			}
			m.move(j, JobQueued, false)
			check()
			continue
		}
		if len(m.running) == 0 {
			break
		}
		j := m.running[0]
		log = append(log, "complete "+j.j.ID())
		g.live(j.measure).reply <- nil
		m.move(j, JobDone, false)
		waitTerminal(t, j.j)
		check()
	}
	if drained != nil {
		if err := <-drained; err != nil {
			t.Fatalf("Drain = %v, want nil", err)
		}
	}
}
