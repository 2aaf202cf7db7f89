package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &sr)
	return resp, sr
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func waitHTTPState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s terminal in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestHTTPSubmitLifecycle drives the full API round trip: submit, poll
// status, read byte-identical results for a deduplicated pair, and check
// the Prometheus endpoint reflects the work.
func TestHTTPSubmitLifecycle(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 2))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"design":"conv:32","workload":"server_001","priority":"interactive"}`
	resp, sr := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if sr.ID == "" || sr.Key == "" || sr.Priority != Interactive {
		t.Fatalf("bad submit response %+v", sr)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+sr.ID {
		t.Errorf("Location = %q", loc)
	}
	waitHTTPState(t, ts, sr.ID, JobDone)

	// Duplicate spec over HTTP: same key, byte-identical result payloads.
	_, sr2 := postJob(t, ts, body)
	if sr2.Key != sr.Key {
		t.Fatalf("duplicate spec got key %s, want %s", sr2.Key, sr.Key)
	}
	waitHTTPState(t, ts, sr2.ID, JobDone)
	read := func(id string) []byte {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET result = %d", resp.StatusCode)
		}
		data, _ := io.ReadAll(resp.Body)
		return data
	}
	if a, b := read(sr.ID), read(sr2.ID); !bytes.Equal(a, b) {
		t.Fatalf("result bytes differ:\n%s\nvs\n%s", a, b)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d executions for duplicate specs, want 1", got)
	}

	// The jobs listing shows both, and the metrics endpoint reports them.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("GET /jobs = %d with %d jobs, want 200 with 2", code, len(list.Jobs))
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"ubsd_jobs_done 2",
		"ubsd_jobs_admitted_interactive 2",
		"ubsd_jobs_inflight 0",
		"ubsd_job_seconds_conv_32kb", // per-design latency histogram
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestHTTPSaturation429 is the admission-control contract over the wire:
// 429 + Retry-After on a full queue, 503 + Retry-After while draining.
func TestHTTPSaturation429(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	cfg := testConfig(stubStore(&calls, release), 1)
	cfg.BatchBound = 1
	cfg.RetryAfter = 2 * time.Second
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Worker occupied + batch queue full.
	_, blocker := postJob(t, ts, `{"design":"conv:32","workload":"server_001"}`)
	waitHTTPState(t, ts, blocker.ID, JobRunning)
	postJob(t, ts, `{"design":"conv:32","workload":"server_002"}`)

	resp, _ := postJob(t, ts, `{"design":"conv:32","workload":"server_003"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}

	// Interactive still admits past a saturated batch queue.
	iresp, _ := postJob(t, ts, `{"design":"conv:32","workload":"server_004","priority":"interactive"}`)
	if iresp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit during batch saturation = %d, want 202", iresp.StatusCode)
	}

	// Start a drain: readyz flips and submissions turn into 503s.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := http.Get(ts.URL + "/readyz"); err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	dresp, _ := postJob(t, ts, `{"design":"conv:32","workload":"server_005"}`)
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", dresp.StatusCode)
	}
	if ra := dresp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining rejection carries no Retry-After")
	}
	<-drainDone

	// Liveness stays up through the drain.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestHTTPCancelAndSSE cancels a running job over the API and asserts
// its SSE stream delivered a heartbeat and the terminal event.
func TestHTTPCancelAndSSE(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	s := New(testConfig(stubStore(&calls, release), 1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sr := postJob(t, ts, `{"design":"conv:32","workload":"server_001"}`)
	waitHTTPState(t, ts, sr.ID, JobRunning)

	// Attach the SSE tail before cancelling.
	sseResp, err := http.Get(ts.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sr.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	waitHTTPStateTerminal(t, ts, sr.ID, JobCancelled)

	// The stream ends (log closed) and carries status + end events.
	types := map[string]int{}
	sc := bufio.NewScanner(sseResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types[strings.TrimPrefix(line, "event: ")]++
		}
	}
	if types["end"] != 1 {
		t.Errorf("SSE stream carried %d end events, want 1 (saw %v)", types["end"], types)
	}
	if types["status"] < 2 {
		t.Errorf("SSE stream carried %d status events, want >=2 (queued, running, terminal)", types["status"])
	}
}

func waitHTTPStateTerminal(t *testing.T, ts *httptest.Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, ts.URL+"/jobs/"+id, &st)
		if st.State == want {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s terminal in %s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// promValue reads one sample's value from a Prometheus text body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, ln := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(ln, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", ln, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s missing:\n%s", name, body)
	return 0
}

// TestHTTPMetricsBeforeTerminalState hammers the publish order: any job
// the API reports as terminal must already be counted in /metrics
// done/failed/cancelled, and no longer in jobs_inflight. Jobs run in
// small waves; each wave mixes a completed, a failed, a memoized, and a
// cancelled job, plus one suspended while it runs and cancelled while its
// attempt unwinds. The checker spins on the API until the whole wave is
// terminal, then reads /metrics at once, when every job ever submitted
// is terminal and the counters must match exactly. Run it under -race.
func TestHTTPMetricsBeforeTerminalState(t *testing.T) {
	store := runner.NewStore("")
	store.SimWorkload = func(ctx context.Context, _ sim.Params, w workloadspec.Workload, design string, _ sim.FrontendFactory) (sim.Result, error) {
		wait := time.After(100 * time.Microsecond)
		if strings.Contains(design, "16B") {
			wait = nil // the suspended job's attempt runs until it is cancelled
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
		if strings.Contains(design, "distill") {
			return sim.Result{}, errors.New("synthetic failure")
		}
		return sim.Result{Workload: w.Name, Design: design}, nil
	}
	s := New(testConfig(store, 2))
	defer s.Close()
	h := s.Handler()
	call := func(method, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if method == http.MethodGet && rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	want := map[string]float64{}
	deadline := time.Now().Add(30 * time.Second)
	for wave := 0; wave < 100; wave++ {
		// A fresh measure length per wave makes its first three keys new;
		// the fourth repeats the first, so it finishes from the memo or
		// by sharing the first's execution.
		var ids []string
		for _, d := range []string{"conv:32", "distill", "ubs", "conv:32"} {
			j := submitOK(t, s, SubmitRequest{Design: d, Workload: "server_001", Measure: 20_000 + uint64(wave)})
			ids = append(ids, j.ID())
		}
		call(http.MethodDelete, "/jobs/"+ids[2])
		held := submitOK(t, s, SubmitRequest{Design: "smallblock16", Workload: "server_001", Measure: 20_000 + uint64(wave)})
		for held.State() != JobRunning {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", held.ID(), held.State())
			}
			time.Sleep(10 * time.Microsecond)
		}
		call(http.MethodPost, "/jobs/"+held.ID()+"/suspend")
		call(http.MethodDelete, "/jobs/"+held.ID())
		ids = append(ids, held.ID())
		for _, id := range ids {
			var st JobStatus
			for !st.State.Terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("job %s stuck in %s", id, st.State)
				}
				if err := json.Unmarshal([]byte(call(http.MethodGet, "/jobs/"+id)), &st); err != nil {
					t.Fatal(err)
				}
			}
			want["ubsd_jobs_"+string(st.State)]++
		}
		prom := call(http.MethodGet, "/metrics")
		for _, name := range []string{"ubsd_jobs_done", "ubsd_jobs_failed", "ubsd_jobs_cancelled", "ubsd_jobs_inflight"} {
			if got := promValue(t, prom, name); got != want[name] {
				t.Fatalf("wave %d: every job is terminal through the API, but %s = %v, want %v", wave, name, got, want[name])
			}
		}
	}
	for _, name := range []string{"ubsd_jobs_done", "ubsd_jobs_failed", "ubsd_jobs_cancelled"} {
		if want[name] == 0 {
			t.Errorf("no job counted in %s: the hammer missed a finish path", name)
		}
	}
}

// TestHTTPSubmitRejectsBadBodies: a POST /jobs body must be exactly one
// JSON object of known fields; anything after it is rejected too.
func TestHTTPSubmitRejectsBadBodies(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubStore(&calls, nil), 1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`not json`,
		`{"design":"conv:32","workload":"server_001","bogus":1}`,
		`{"design":"conv:32","workload":"server_001"} trailing garbage`,
		`{"design":"conv:32","workload":"server_001"}{"design":"ubs"}`,
	} {
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /jobs %s = %d, want 400", body, resp.StatusCode)
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("bad bodies created %d jobs", n)
	}
}
