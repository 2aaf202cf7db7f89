package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// WorkloadKey returns the content hash identifying one simulation
// point: the model epoch, the normalised parameters, the workload, and
// the design name. Equal keys denote equal results across processes
// because every simulation is a deterministic function of exactly these
// inputs under one sim.ModelEpoch. Generator-backed workloads hash their
// materialised workload.Config, so the "preset:x" and bare "x"
// spellings of the same program share a key. Source-backed workloads
// (mix, trace, champsim) hash their canonical resolved Spec — mix files
// are inlined at parse time, so the key covers the clients and seed, not
// a file path. The "workload-spec" tag keeps the two hash domains
// disjoint.
func WorkloadKey(p sim.Params, w workloadspec.Workload, design string) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Every value encodes: the structs hold exported fields only.
	enc.Encode(sim.ModelEpoch)
	enc.Encode(p)
	if cfg, ok := w.Config(); ok {
		enc.Encode(cfg)
	} else {
		enc.Encode("workload-spec")
		enc.Encode(w.Spec)
	}
	enc.Encode(design)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RunMeta records how a result was obtained. It is persisted alongside
// cached results, so wallclocktaint treats its fields as sinks.
//
//ubs:artifact
type RunMeta struct {
	// Seconds is the simulation's wall-clock time (the original run's time
	// for disk-cache hits).
	Seconds float64
	// Disk marks results served from the on-disk cache.
	Disk bool
}

type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Store memoizes simulation results by WorkloadKey. Concurrent requests
// for the same key block on a single in-flight simulation (singleflight)
// rather than duplicating work, and a non-empty Dir persists every result
// as JSON so an interrupted sweep resumes instead of recomputing. Errors
// are not cached; a failed point may be retried.
type Store struct {
	// Dir persists results under <Dir>/<key>.json when non-empty.
	Dir string
	// CheckpointEvery enables crash-safe checkpointing of uncached
	// computations: a checkpoint is written to <Dir>/<key>.ubsc every
	// CheckpointEvery measured instructions (atomic rename,
	// content-keyed like the result cache), and a run that finds an
	// existing checkpoint for its key resumes from it instead of
	// starting over. 0 disables; requires a non-empty Dir. The
	// SimWorkload seam bypasses checkpointing.
	CheckpointEvery uint64
	// SimWorkload, when non-nil, runs every simulation in place of
	// workloadspec.Run and receives the caller's context (tests inject
	// counting, blocking or failing stubs; benchmarks inject probes).
	SimWorkload func(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error)

	mu sync.Mutex
	//ubs:guardedby(mu)
	results map[string]sim.Result
	//ubs:guardedby(mu)
	meta map[string]RunMeta
	//ubs:guardedby(mu)
	inflight map[string]*flight
}

// NewStore builds a Store; dir == "" keeps results in memory only.
func NewStore(dir string) *Store {
	return &Store{
		Dir:      dir,
		results:  make(map[string]sim.Result),
		meta:     make(map[string]RunMeta),
		inflight: make(map[string]*flight),
	}
}

// RunWorkloadContext returns the memoized result for (p, w, design),
// computing it at most once per key no matter how many goroutines ask
// concurrently. An uncached computation honours ctx: it is cancelled
// between heartbeat intervals (see sim.RunContext) and its error is not
// memoized, so a resumed sweep retries the point.
func (s *Store) RunWorkloadContext(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
	res, _, err := s.RunWorkloadShared(ctx, p, w, design, factory)
	return res, err
}

// RunWorkloadShared is RunWorkloadContext that additionally reports
// whether the result was shared — served from the memo, a disk-cache
// entry, or another caller's in-flight execution — rather than computed
// on behalf of this call. The serving layer uses it to mark deduplicated
// jobs.
func (s *Store) RunWorkloadShared(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, bool, error) {
	key := WorkloadKey(p, w, design)
	s.mu.Lock()
	if res, ok := s.results[key]; ok {
		s.mu.Unlock()
		return res, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.res, f.err == nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	res, meta, err := s.compute(ctx, key, p, w, design, factory)
	f.res, f.err = res, err
	s.mu.Lock()
	if err == nil {
		s.results[key] = res
		s.meta[key] = meta
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return res, meta.Disk, err
}

// Result returns the memoized result for key, if present.
func (s *Store) Result(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[key]
	return res, ok
}

// Meta reports how key's result was obtained (zero value if unknown).
func (s *Store) Meta(key string) RunMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta[key]
}

func (s *Store) compute(ctx context.Context, key string, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, RunMeta, error) {
	if res, sec, ok := s.loadDisk(key); ok {
		return res, RunMeta{Seconds: sec, Disk: true}, nil
	}
	t0 := time.Now()
	res, err := s.simulate(ctx, key, p, w, design, factory)
	if err != nil {
		return sim.Result{}, RunMeta{}, err
	}
	//ubs:wallclock RunMeta.Seconds is cache metadata, never a simulated quantity; scrubbed from comparisons
	meta := RunMeta{Seconds: time.Since(t0).Seconds()}
	s.saveDisk(key, res, meta.Seconds)
	return res, meta, nil
}

// simulate isolates per-run panics into errors so one bad design point
// cannot take down a whole sweep. With CheckpointEvery set and no
// SimWorkload seam installed, the real simulation runs through the
// checkpointing driver, keyed by the same content hash as the result
// cache entry.
func (s *Store) simulate(ctx context.Context, key string, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: %s on %s panicked: %v", design, w.Name, r)
		}
	}()
	if s.SimWorkload != nil {
		return s.SimWorkload(ctx, p, w, design, factory)
	}
	if s.CheckpointEvery > 0 && s.Dir != "" {
		return s.runCheckpointed(ctx, key, p, w, design, factory)
	}
	return workloadspec.Run(ctx, p, w, design, factory)
}

// diskRecord is the on-disk cache entry; sim.Result round-trips through
// encoding/json because all its fields are exported value types.
type diskRecord struct {
	Key      string     `json:"key"`
	Workload string     `json:"workload"`
	Design   string     `json:"design"`
	Seconds  float64    `json:"seconds"`
	Result   sim.Result `json:"result"`
}

func (s *Store) path(key string) string { return filepath.Join(s.Dir, key+".json") }

func (s *Store) loadDisk(key string) (sim.Result, float64, bool) {
	if s.Dir == "" {
		return sim.Result{}, 0, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return sim.Result{}, 0, false
	}
	var rec diskRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		// A truncated or stale entry is treated as a miss and overwritten.
		return sim.Result{}, 0, false
	}
	return rec.Result, rec.Seconds, true
}

// saveDisk persists best-effort: a full disk must not fail the sweep, the
// result is still held in memory. writeFileAtomic (unique temp file in
// the cache directory, fsync, rename) guarantees a killed process can
// never leave a truncated cache entry behind.
func (s *Store) saveDisk(key string, res sim.Result, seconds float64) {
	if s.Dir == "" {
		return
	}
	data, err := json.Marshal(diskRecord{
		Key: key, Workload: res.Workload, Design: res.Design,
		Seconds: seconds, Result: res,
	})
	if err != nil {
		return
	}
	writeFileAtomic(s.path(key), data)
}
