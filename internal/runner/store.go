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

	"ubscache/internal/checkpoint"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
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

// AuxKey returns the content hash identifying one functional analysis
// pass (exp's Figure 1/4 cache walks): the model epoch, the pass kind,
// the workload's full config and the number of instructions the pass
// walks. The kind also names the encoding of the pass's bytes, so a
// change to that encoding takes a new kind. The leading "aux" tag keeps
// the hash domain disjoint from WorkloadKey's, whose first encoded value
// is the epoch.
func AuxKey(kind string, cfg workload.Config, instrs uint64) string {
	return auxKey(sim.ModelEpoch, kind, cfg, instrs)
}

func auxKey(epoch int, kind string, cfg workload.Config, instrs uint64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode("aux")
	enc.Encode(epoch)
	enc.Encode(kind)
	enc.Encode(cfg)
	enc.Encode(instrs)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// RunMeta records how a result was obtained. It is persisted alongside
// cached results, so ubslint's determinism clock rule treats its fields
// as sinks.
//
//ubs:artifact
type RunMeta struct {
	// Seconds is the simulation's wall-clock time (the original run's time
	// for disk-cache hits).
	Seconds float64
	// Disk marks results served from the on-disk cache.
	Disk bool
}

// entry is one memoized point: a timed simulation's result, or a
// functional pass's JSON bytes (aux, non-nil only for AuxKey entries).
type entry struct {
	res  sim.Result
	aux  []byte
	meta RunMeta
}

type flight struct {
	done chan struct{}
	e    entry
	err  error
}

// Store memoizes simulation results by WorkloadKey and functional
// analysis passes by AuxKey. Concurrent requests for the same key block
// on a single in-flight computation (singleflight) rather than
// duplicating work, and a non-empty Dir persists every result and pass
// as JSON so an interrupted or repeated sweep reads it back instead of
// recomputing. Errors are not cached; a failed point may be retried.
type Store struct {
	// Dir persists results and functional passes under <Dir>/<key>.json
	// when non-empty.
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
	entries map[string]entry
	//ubs:guardedby(mu)
	inflight map[string]*flight
}

// NewStore builds a Store; dir == "" keeps results in memory only.
func NewStore(dir string) *Store {
	return &Store{
		Dir:      dir,
		entries:  make(map[string]entry),
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
	e, shared, err := s.resolve(key, func() (entry, error) {
		return s.compute(ctx, key, p, w, design, factory)
	})
	return e.res, shared, err
}

// RunAux returns the JSON bytes of the functional analysis pass
// AuxKey(kind, cfg, instrs), calling pass only when neither the memo nor
// Dir holds them. It keeps the rules of a timed point: one computation
// per key across concurrent callers, a panicking pass surfaces as an
// error, errors are not memoized, and a non-empty Dir persists the bytes
// as <Dir>/<key>.json. The bytes are opaque to the Store; the caller
// encodes and decodes them.
func (s *Store) RunAux(kind string, cfg workload.Config, instrs uint64, pass func() ([]byte, error)) ([]byte, error) {
	key := AuxKey(kind, cfg, instrs)
	e, _, err := s.resolve(key, func() (entry, error) {
		if rec, ok := s.loadDisk(key); ok && len(rec.Aux) > 0 {
			return entry{aux: rec.Aux, meta: RunMeta{Seconds: rec.Seconds, Disk: true}}, nil
		}
		t0 := time.Now()
		data, err := runPass(kind, cfg.Name, pass)
		if err != nil {
			return entry{}, err
		}
		//ubs:wallclock RunMeta.Seconds is cache metadata, never a simulated quantity
		meta := RunMeta{Seconds: time.Since(t0).Seconds()}
		s.saveDisk(diskRecord{Key: key, Workload: cfg.Name, Kind: kind, Seconds: meta.Seconds, Aux: data})
		return entry{aux: data, meta: meta}, nil
	})
	return e.aux, err
}

// resolve returns key's memoized entry, computing it with compute at
// most once across concurrent callers. shared reports whether the entry
// was served from the memo, a disk-cache entry, or another caller's
// in-flight computation rather than computed on behalf of this call.
func (s *Store) resolve(key string, compute func() (entry, error)) (entry, bool, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return e, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.e, f.err == nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	e, err := compute()
	f.e, f.err = e, err
	s.mu.Lock()
	if err == nil {
		s.entries[key] = e
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return e, e.meta.Disk, err
}

// runPass isolates a functional pass's panic into an error, as simulate
// does for a timed point.
func runPass(kind, workload string, pass func() ([]byte, error)) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: %s pass on %s panicked: %v", kind, workload, r)
		}
	}()
	return pass()
}

// Result returns the memoized result for key, if present.
func (s *Store) Result(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e.res, ok
}

// Meta reports how key's result was obtained (zero value if unknown).
func (s *Store) Meta(key string) RunMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key].meta
}

func (s *Store) compute(ctx context.Context, key string, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (entry, error) {
	if rec, ok := s.loadDisk(key); ok && rec.Result != nil {
		return entry{res: *rec.Result, meta: RunMeta{Seconds: rec.Seconds, Disk: true}}, nil
	}
	t0 := time.Now()
	res, err := s.simulate(ctx, key, p, w, design, factory)
	if err != nil {
		return entry{}, err
	}
	//ubs:wallclock RunMeta.Seconds is cache metadata, never a simulated quantity; scrubbed from comparisons
	meta := RunMeta{Seconds: time.Since(t0).Seconds()}
	s.saveDisk(diskRecord{
		Key: key, Workload: res.Workload, Design: res.Design,
		Seconds: meta.Seconds, Result: &res,
	})
	return entry{res: res, meta: meta}, nil
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

// diskRecord is the on-disk cache entry of either kind of point: a
// timed point's Result, or a functional pass's Kind and opaque Aux bytes.
// sim.Result round-trips through encoding/json because all its fields
// are exported value types.
type diskRecord struct {
	Key      string          `json:"key"`
	Workload string          `json:"workload"`
	Design   string          `json:"design,omitempty"`
	Kind     string          `json:"kind,omitempty"`
	Seconds  float64         `json:"seconds"`
	Result   *sim.Result     `json:"result,omitempty"`
	Aux      json.RawMessage `json:"aux,omitempty"`
}

func (s *Store) path(key string) string { return filepath.Join(s.Dir, key+".json") }

func (s *Store) loadDisk(key string) (diskRecord, bool) {
	if s.Dir == "" {
		return diskRecord{}, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return diskRecord{}, false
	}
	var rec diskRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		// A truncated or stale entry is treated as a miss and overwritten.
		return diskRecord{}, false
	}
	return rec, true
}

// saveDisk persists best-effort: a full disk must not fail the sweep, the
// entry is still held in memory. checkpoint.WriteFileAtomic (unique temp
// file in the cache directory, fsync, rename) guarantees a killed process can
// never leave a truncated cache entry behind.
func (s *Store) saveDisk(rec diskRecord) {
	if s.Dir == "" {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	checkpoint.WriteFileAtomic(s.path(rec.Key), data)
}
