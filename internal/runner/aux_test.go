package runner

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// auxCounts reports how many functional passes s holds and how many of
// them it computed rather than read from its directory.
func auxCounts(s *Store) (held, computed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.aux != nil {
			held++
			if !e.meta.Disk {
				computed++
			}
		}
	}
	return held, computed
}

// countingPass returns a pass that counts its calls and returns data.
func countingPass(calls *atomic.Int64, data string) func() ([]byte, error) {
	return func() ([]byte, error) {
		calls.Add(1)
		return []byte(data), nil
	}
}

func TestAuxKey(t *testing.T) {
	p, wcfg := testPoint(t, workload.FamilyServer, 0)
	k := AuxKey("fig1", wcfg, 70_000)
	if AuxKey("fig1", wcfg, 70_000) != k {
		t.Fatal("same inputs, different aux keys")
	}
	wcfg2 := wcfg
	wcfg2.Seed++
	wcfg3 := wcfg
	wcfg3.ColdFrac /= 2
	for name, other := range map[string]string{
		"instruction budget": AuxKey("fig1", wcfg, 70_001),
		"workload seed":      AuxKey("fig1", wcfg2, 70_000),
		"workload config":    AuxKey("fig1", wcfg3, 70_000),
		"pass kind":          AuxKey("fig4", wcfg, 70_000),
		"model epoch":        auxKey(sim.ModelEpoch+1, "fig1", wcfg, 70_000),
	} {
		if other == k {
			t.Errorf("a different %s gives the same aux key", name)
		}
	}
	// The "aux" tag keeps the domains apart: no timed point of the same
	// workload, under any design or budget, shares a pass's key.
	w := workloadspec.FromConfig(wcfg)
	for _, design := range []string{"", "fig1", "ubs", "conv-32KB"} {
		for _, q := range []sim.Params{{}, p} {
			if WorkloadKey(q, w, design) == k {
				t.Errorf("WorkloadKey(%s) equals the aux key", design)
			}
		}
	}
}

// TestStoreAuxDiskCache: a pass persists under Dir, a second Store reads
// it back without running the pass, and the bytes survive unchanged.
func TestStoreAuxDiskCache(t *testing.T) {
	dir := t.TempDir()
	_, wcfg := testPoint(t, workload.FamilyServer, 0)
	const want = `{"Counts":[1,2,3],"Total":6}`

	var calls atomic.Int64
	s1 := NewStore(dir)
	got, err := s1.RunAux("fig1", wcfg, 100, countingPass(&calls, want))
	if err != nil || string(got) != want {
		t.Fatalf("first RunAux = %q, %v", got, err)
	}
	if _, err := s1.RunAux("fig1", wcfg, 100, countingPass(&calls, want)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("memoized pass ran %d times", calls.Load())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("cache dir holds %d files, want 1", len(entries))
	}

	s2 := NewStore(dir)
	got, err = s2.RunAux("fig1", wcfg, 100, countingPass(&calls, "{}"))
	if err != nil || string(got) != want {
		t.Fatalf("disk RunAux = %q, %v", got, err)
	}
	if calls.Load() != 1 {
		t.Fatal("second store reran the pass despite the disk cache")
	}
	if m := s2.Meta(AuxKey("fig1", wcfg, 100)); !m.Disk {
		t.Error("disk hit not recorded in meta")
	}
}

// TestStoreAuxBadFileRecomputes: a truncated entry, or a complete one
// recorded under another key, is a miss that is recomputed and
// overwritten.
func TestStoreAuxBadFileRecomputes(t *testing.T) {
	_, wcfg := testPoint(t, workload.FamilySPEC, 0)
	const want = `{"Fracs":[0.5,0.75,1,1],"Evictions":9}`
	key := AuxKey("fig4", wcfg, 100)
	for name, body := range map[string]string{
		"truncated": `{"key":"` + key + `","workload":"spec_001","kind":"fig4","seconds":0.1,"aux":{"Fracs":[0.5`,
		"other key": `{"key":"0123","workload":"spec_001","kind":"fig4","seconds":0.1,"aux":{"Fracs":[0,0,0,0],"Evictions":1}}`,
		"no bytes":  `{"key":"` + key + `","workload":"spec_001","seconds":0.1}`,
	} {
		t.Run(name, func(t *testing.T) {
			s := NewStore(t.TempDir())
			if err := os.WriteFile(s.path(key), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			got, err := s.RunAux("fig4", wcfg, 100, countingPass(&calls, want))
			if err != nil || string(got) != want || calls.Load() != 1 {
				t.Fatalf("RunAux = %q, %v after %d passes; want the recomputed bytes from 1 pass", got, err, calls.Load())
			}
			rec, ok := NewStore(s.Dir).loadDisk(key)
			if !ok || string(rec.Aux) != want || rec.Kind != "fig4" {
				t.Errorf("entry not overwritten: %+v, %v", rec, ok)
			}
		})
	}
}

// TestStoreAuxErrorsNotCached: a failing or panicking pass surfaces as
// an error and is retried on the next request.
func TestStoreAuxErrorsNotCached(t *testing.T) {
	_, wcfg := testPoint(t, workload.FamilyClient, 0)
	s := NewStore(t.TempDir())
	attempts := 0
	pass := func() ([]byte, error) {
		attempts++
		switch attempts {
		case 1:
			return nil, fmt.Errorf("transient")
		case 2:
			panic("synthetic failure")
		}
		return []byte(`{}`), nil
	}
	for i := 0; i < 2; i++ {
		if _, err := s.RunAux("fig1", wcfg, 100, pass); err == nil {
			t.Fatalf("attempt %d: failure swallowed", i+1)
		}
	}
	if _, err := s.RunAux("fig1", wcfg, 100, pass); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
	if attempts != 3 {
		t.Errorf("%d attempts, want 3", attempts)
	}
}

// TestSweepWarmComputesNothing: a second sweep over a populated cache
// directory runs neither a timed point nor a functional pass, and renders
// the cold sweep's tables byte for byte.
func TestSweepWarmComputesNothing(t *testing.T) {
	spec := Spec{
		Experiments: []string{"fig1", "fig4", "x86"},
		PerFamily:   1,
		Parallel:    4,
		Params:      ParamSpec{Warmup: 10_000, Measure: 20_000},
	}
	dir := t.TempDir()
	sweep := func() (*Outcome, *Store, int64) {
		var calls atomic.Int64
		store := NewStore(dir)
		store.SimWorkload = stubSim(&calls, 0)
		return runSweep(t, &Sweep{Spec: spec, Store: store}), store, calls.Load()
	}
	cold, coldStore, coldSims := sweep()
	// fig1 and fig4 walk the four families, x86 its one x86 workload.
	if held, computed := auxCounts(coldStore); held != 9 || computed != 9 || coldSims == 0 {
		t.Fatalf("cold sweep: %d passes held, %d computed, %d points simulated", held, computed, coldSims)
	}
	warm, warmStore, warmSims := sweep()
	if held, computed := auxCounts(warmStore); held != 9 || computed != 0 || warmSims != 0 {
		t.Errorf("warm sweep: %d passes held, %d computed, %d points simulated; want 9, 0, 0", held, computed, warmSims)
	}
	if renderedText(cold) != renderedText(warm) {
		t.Errorf("warm sweep rendered different tables:\n--- cold\n%s\n--- warm\n%s", renderedText(cold), renderedText(warm))
	}
}

// TestConcurrentRendersShareAuxPasses: two renders of the functional
// experiments on one Store, as RunExperiment binds it, compute each pass
// once.
func TestConcurrentRendersShareAuxPasses(t *testing.T) {
	p := Spec{Params: ParamSpec{Warmup: 10_000, Measure: 20_000}}.SimParams()
	store := NewStore("")
	var passes atomic.Int64
	opts := exp.Options{
		Params: p, PerFamily: 1,
		Exec: func(p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
			return store.RunWorkloadContext(context.Background(), p, w, design, factory)
		},
		Aux: func(kind string, cfg workload.Config, instrs uint64, pass func() ([]byte, error)) ([]byte, error) {
			return store.RunAux(kind, cfg, instrs, func() ([]byte, error) {
				passes.Add(1)
				return pass()
			})
		},
	}
	var (
		wg   sync.WaitGroup
		outs [2]string
		errs [2]error
	)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := exp.NewRunner(opts)
			for _, id := range []string{"fig1", "fig4"} {
				e, err := exp.ByID(id)
				if err != nil {
					errs[i] = err
					return
				}
				text, err := e.Run(r)
				if err != nil {
					errs[i] = err
					return
				}
				outs[i] += text
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("concurrent renders differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	if n := passes.Load(); n != 8 {
		t.Errorf("computed %d passes, want 8 (fig1 and fig4 over four families)", n)
	}
}
