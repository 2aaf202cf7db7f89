package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/serve"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// The serve pass's stream: short runs of two presets on the four
// designs, a quarter of them interactive, every repeatEvery-th arrival
// repeating an earlier request, so the store's dedup and cache paths
// are taken.
const (
	jobWarmup        = 10_000
	jobMeasure       = 20_000
	interactiveShare = 0.25
	repeatEvery      = 4
	// perWorkerRate is the arrival rate per server worker, in jobs per
	// second. With these jobs' service times it keeps the workers about
	// a third busy.
	perWorkerRate = 10.0
	// serveSeconds is the stream's length at the nominal rate.
	serveSeconds = 6
)

// jobPresets are two presets whose short runs cost about the same, so
// the latency percentiles do not sit between clusters of job sizes.
var jobPresets = []string{"client_001", "spec_001"}

// jobReq is one scheduled arrival: when it is due, relative to the
// stream's start, and what it submits.
type jobReq struct {
	due    time.Duration
	body   serve.SubmitRequest
	repeat bool
}

// genJobs generates the open-loop arrival schedule from seed: a Poisson
// stream at rate per second, given that n arrivals fall in its n/rate
// seconds (so n uniform times in that span, sorted), which keeps the
// stream's length the same for every seed. Fresh requests walk the
// preset × design grid in seeded shuffled blocks, so every stream has
// the same mix, and each gets a distinct measured length, so each is a
// distinct simulation point.
func genJobs(seed int64, rate float64, n int) []jobReq {
	rng := rand.New(rand.NewSource(seed))
	span := float64(n) / rate
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * span
	}
	sort.Float64s(times)
	type cell struct{ preset, design string }
	var grid []cell
	for _, p := range jobPresets {
		for _, d := range designs {
			grid = append(grid, cell{p, d.shorthand})
		}
	}
	var (
		out   []jobReq
		fresh []serve.SubmitRequest
		block []int
	)
	for i, t := range times {
		due := time.Duration(t * float64(time.Second))
		if i%repeatEvery == repeatEvery-1 && len(fresh) > 0 {
			out = append(out, jobReq{due: due, body: fresh[rng.Intn(len(fresh))], repeat: true})
			continue
		}
		if len(block) == 0 {
			block = rng.Perm(len(grid))
		}
		c := grid[block[0]]
		block = block[1:]
		prio := serve.Batch
		if rng.Float64() < interactiveShare {
			prio = serve.Interactive
		}
		body := serve.SubmitRequest{
			Design: c.design, Workload: c.preset, Priority: prio,
			Warmup: jobWarmup, Measure: jobMeasure + uint64(len(fresh)),
		}
		fresh = append(fresh, body)
		out = append(out, jobReq{due: due, body: body})
	}
	return out
}

// daemon is one in-process serve.Server, reached through its HTTP
// handler. Requests are served in the caller's goroutine through an
// httptest.ResponseRecorder, with no socket: loopback TCP adds the
// kernel's network stack, whose cost swung the measured times between
// runs by more than the bounds allow.
type daemon struct {
	srv     *serve.Server
	handler http.Handler
	store   *runner.Store

	mu   sync.Mutex
	runs map[string]*runRec // the store's computed points, by key
	all  []*runRec
}

// startDaemon starts a server over a store in dir whose points run
// through simulate.
func (b *bench) startDaemon(dir string) *daemon {
	d := &daemon{store: runner.NewStore(dir), runs: map[string]*runRec{}}
	d.store.SimWorkload = func(ctx context.Context, p sim.Params, w workloadspec.Workload, name string, f sim.FrontendFactory) (sim.Result, error) {
		r, err := b.simulate(ctx, p, w, name, f, simOpts{traced: b.traced, record: b.traced})
		if err != nil {
			return sim.Result{}, err
		}
		p.Observer = nil // the job's observer is not part of its key
		key := runner.WorkloadKey(p, w, name)
		d.mu.Lock()
		d.runs[key] = r
		d.all = append(d.all, r)
		d.mu.Unlock()
		return r.res, nil
	}
	// Queue bounds far above the stream's depth: the warm bursts must not
	// be refused.
	d.srv = serve.New(serve.Config{Store: d.store, Workers: b.workers, InteractiveBound: 1 << 14, BatchBound: 1 << 14})
	d.handler = d.srv.Handler()
	return d
}

// stop closes the server and waits for its workers.
func (d *daemon) stop() { d.srv.Close() }

// do serves one request and returns the response's status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	d.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// submitted is what one POST /jobs got.
type submitted struct {
	at       time.Time
	rtt      time.Duration
	id, key  string
	rejected bool
	err      error
}

func (d *daemon) submit(body serve.SubmitRequest) submitted {
	s := submitted{at: time.Now()}
	data, err := json.Marshal(body)
	if err != nil {
		s.err = err
		return s
	}
	code, resp := d.do(http.MethodPost, "/jobs", data)
	switch code {
	case http.StatusAccepted:
		var r serve.SubmitResponse
		s.err = json.Unmarshal(resp, &r)
		s.id, s.key = r.ID, r.Key
	case http.StatusTooManyRequests:
		s.rejected = true
	default:
		s.err = fmt.Errorf("submit: %d: %s", code, bytes.TrimSpace(resp))
	}
	s.rtt = time.Since(s.at)
	return s
}

// send submits reqs on their schedule from start, at most b.workers at
// a time. An arrival that finds every sender busy waits; its lateness
// shows in submitted.at.
func (b *bench) send(d *daemon, reqs []jobReq, start time.Time) []submitted {
	out := make([]submitted, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < b.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				out[idx] = d.submit(reqs[idx].body)
			}
		}()
	}
	for i, r := range reqs {
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// waitDone blocks until every submission in subs that made a job has
// finished. It polls the jobs themselves: the server's own count of
// active jobs walks its whole registry, which grows with every job.
func (d *daemon) waitDone(subs []submitted, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, s := range subs {
		j, ok := d.srv.Job(s.id)
		if !ok {
			continue // refused or failed: no job to wait for
		}
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s still active after %s", s.id, limit)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

func (d *daemon) get(path string) ([]byte, error) {
	code, body := d.do(http.MethodGet, path, nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, code)
	}
	return body, nil
}

// statuses fetches every job's status, by id.
func (d *daemon) statuses() (map[string]serve.JobStatus, error) {
	data, err := d.get("/jobs")
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, err
	}
	out := make(map[string]serve.JobStatus, len(list.Jobs))
	for _, st := range list.Jobs {
		out[st.ID] = st
	}
	return out, nil
}

// serveLayer measures the serve layer in a traced paper-sweep run: an
// open-loop stream of serveSeconds of jobs through the HTTP handler of
// an in-process server with nproc workers. Every job must complete and
// be served the store's result for its key. It sets the serve metrics
// and bench.gen_late_ms.
func (b *bench) serveLayer() error {
	d := b.startDaemon(filepath.Join(b.dir, "serve"))
	defer d.stop()
	rate := perWorkerRate * float64(b.workers)
	reqs := genJobs(b.seed, rate, int(rate*serveSeconds))
	start := time.Now()
	subs := b.send(d, reqs, start)
	if err := d.waitDone(subs, 2*time.Minute); err != nil {
		return err
	}
	sts, err := d.statuses()
	if err != nil {
		return err
	}
	var (
		late, submitUs        []float64
		queued, ran           = map[serve.Priority][]float64{}, map[serve.Priority][]float64{}
		done, fromCache, refd int
	)
	for i, r := range reqs {
		s := subs[i]
		late = append(late, ms(s.at.Sub(start.Add(r.due))))
		if s.rejected {
			refd++
		}
		st, ok := sts[s.id]
		if s.err != nil || s.rejected || !ok || st.State != serve.JobDone || st.FinishedAt == nil || st.StartedAt == nil {
			b.check(false, "job %d (%s on %s): err=%v refused=%v state=%q", i, r.body.Design, r.body.Workload, s.err, s.rejected, st.State)
			continue
		}
		submitUs = append(submitUs, float64(s.rtt)/float64(time.Microsecond))
		done++
		if st.FromCache {
			fromCache++
		}
		queued[st.Priority] = append(queued[st.Priority], ms(st.StartedAt.Sub(st.SubmittedAt)))
		ran[st.Priority] = append(ran[st.Priority], ms(st.FinishedAt.Sub(*st.StartedAt)))
		body, err := d.get("/jobs/" + s.id + "/result")
		if err != nil {
			return err
		}
		want, ok := d.store.Result(s.key)
		b.check(ok && sameJSONBytes(body, want), "job %s result differs from the store's result for its key", s.id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.all {
		if r.kind == "ubs" {
			b.check(r.invariants == nil, "ubs invariants on %s: %v", r.res.Workload, r.invariants)
		}
	}
	b.note("serve_jobs", len(reqs))
	b.set("serve.submit_us", median(submitUs))
	b.set("serve.queue_wait_ms.interactive", median(queued[serve.Interactive]))
	b.set("serve.queue_wait_ms.batch", median(queued[serve.Batch]))
	b.set("serve.run_ms.interactive", median(ran[serve.Interactive]))
	b.set("serve.run_ms.batch", median(ran[serve.Batch]))
	b.set("serve.from_cache_frac", ratio(float64(fromCache), float64(done)))
	b.set("serve.rejected", float64(refd))
	lateTail, _, _ := tailPercentile(late, 0.95)
	b.set("bench.gen_late_ms", lateTail)
	return nil
}

// sameJSONBytes reports whether body, a served result, is the JSON
// encoding of want.
func sameJSONBytes(body []byte, want sim.Result) bool {
	data, err := json.Marshal(want)
	return err == nil && bytes.Equal(bytes.TrimSpace(body), data)
}
