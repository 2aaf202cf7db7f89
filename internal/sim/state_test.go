package sim

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/cache"
	"ubscache/internal/core"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// TestRestoreEncodedWireOrder pins the field order of the state structs
// whose parts RestoreEncoded, mem's RestoreInPlace methods and the L1-I
// frontends' SnapshotState and RestoreState encode or decode one by one,
// to the order those functions handle them in. Snap encodes the
// fields in declaration order, so a reordered or added field would make
// the part-by-part decode misparse the image.
func TestRestoreEncodedWireOrder(t *testing.T) {
	cases := []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[MachineState](), []string{
			fmt.Sprint("RunState ", reflect.TypeFor[RunState]()),
			fmt.Sprint("Core ", reflect.TypeFor[core.State]()),
			fmt.Sprint("FTQ ", reflect.TypeFor[fdip.State]()),
			fmt.Sprint("BPU ", reflect.TypeFor[bpu.State]()),
			fmt.Sprint("Frontend ", reflect.TypeFor[[]byte]()),
			fmt.Sprint("DataCache ", reflect.TypeFor[*mem.DataCacheState]()),
			fmt.Sprint("Hierarchy ", reflect.TypeFor[mem.HierarchyState]()),
			fmt.Sprint("Walker ", reflect.TypeFor[*workload.State]()),
		}},
		{reflect.TypeFor[mem.HierarchyState](), []string{
			fmt.Sprint("L2 ", reflect.TypeFor[mem.LevelState]()),
			fmt.Sprint("L3 ", reflect.TypeFor[mem.LevelState]()),
			fmt.Sprint("DRAM ", reflect.TypeFor[mem.DRAMState]()),
		}},
		{reflect.TypeFor[mem.LevelState](), []string{
			fmt.Sprint("Cache ", reflect.TypeFor[cache.State]()),
			fmt.Sprint("MSHR ", reflect.TypeFor[mem.MSHRState]()),
		}},
		{reflect.TypeFor[mem.DataCacheState](), []string{
			fmt.Sprint("Cache ", reflect.TypeFor[cache.State]()),
			fmt.Sprint("MSHR ", reflect.TypeFor[mem.MSHRState]()),
		}},
		{reflect.TypeFor[icache.EngineState](), []string{
			fmt.Sprint("MSHR ", reflect.TypeFor[mem.MSHRState]()),
			fmt.Sprint("Stats ", reflect.TypeFor[icache.Stats]()),
		}},
		{reflect.TypeFor[icache.ConventionalState](), []string{
			fmt.Sprint("Engine ", reflect.TypeFor[icache.EngineState]()),
			fmt.Sprint("Cache ", reflect.TypeFor[cache.State]()),
			fmt.Sprint("ACIC ", reflect.TypeFor[*icache.ACICState]()),
		}},
		{reflect.TypeFor[icache.SmallBlockState](), []string{
			fmt.Sprint("Engine ", reflect.TypeFor[icache.EngineState]()),
			fmt.Sprint("Cache ", reflect.TypeFor[cache.State]()),
			fmt.Sprint("Buffer ", reflect.TypeFor[icache.FillBufferState]()),
		}},
		{reflect.TypeFor[icache.DistillState](), []string{
			fmt.Sprint("Engine ", reflect.TypeFor[icache.EngineState]()),
			fmt.Sprint("LOC ", reflect.TypeFor[cache.State]()),
			fmt.Sprint("WOC ", reflect.TypeFor[icache.WOCState]()),
			fmt.Sprint("WOCHits ", reflect.TypeFor[uint64]()),
		}},
		{reflect.TypeFor[ubs.State](), []string{
			fmt.Sprint("Engine ", reflect.TypeFor[icache.EngineState]()),
			fmt.Sprint("Storage ", reflect.TypeFor[ubs.Storage]()),
		}},
		{reflect.TypeFor[ubs.Storage](), []string{
			fmt.Sprint("Ways ", reflect.TypeFor[[]ubs.WayEntry]()),
			fmt.Sprint("Clock ", reflect.TypeFor[uint64]()),
			fmt.Sprint("Stats ", reflect.TypeFor[ubs.Stats]()),
			fmt.Sprint("Pred ", reflect.TypeFor[ubs.PredictorState]()),
			fmt.Sprint("Dead ", reflect.TypeFor[*ubs.DeadState]()),
			fmt.Sprint("Admit ", reflect.TypeFor[*ubs.AdmitState]()),
		}},
	}
	for _, tc := range cases {
		var got []string
		for i := range tc.typ.NumField() {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, fmt.Sprint(f.Name, " ", f.Type))
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v fields:\n got:  %q\n want: %q", tc.typ, got, tc.want)
		}
	}
}

// TestWalkerImageCorruptionRejected pins that a walker image read from
// file bytes is checked when it is restored (restore decodes it in place
// through RestoreEncoded, which Resume calls): a real mid-measure
// snapshot restores, and the same snapshot with any one walker field
// corrupted is refused with an error, never a panic. The generator
// register itself has no invalid values; its taps do.
func TestWalkerImageCorruptionRejected(t *testing.T) {
	prog, err := workload.Build(specCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup, p.Measure = 5_000, 20_000
	fresh := func(src trace.Source) *Machine {
		m, err := NewMachine(context.Background(), p, src, "spec", "conv", convFactory)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := fresh(workload.NewWalker(prog))
	if err := m.Advance(7_000); err != nil {
		t.Fatal(err)
	}
	var good MachineState
	if err := m.Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	if good.Walker == nil {
		t.Fatal("snapshot of a walker-fed machine carries no walker image")
	}
	if err := restore(fresh(workload.NewWalker(prog)), &good); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}

	nf := len(prog.Funcs)
	nb := len(prog.Funcs[good.Walker.Fn].Blocks)
	ni := prog.Funcs[good.Walker.Fn].Blocks[good.Walker.Blk].NInstr
	cases := map[string]func(w *workload.State){
		"tap-negative":       func(w *workload.State) { w.RNG.Tap = -1 },
		"tap-high":           func(w *workload.State) { w.RNG.Tap = 607 },
		"feed-negative":      func(w *workload.State) { w.RNG.Feed = -1 },
		"feed-high":          func(w *workload.State) { w.RNG.Feed = 607 },
		"stack-too-deep":     func(w *workload.State) { w.Stack = make([]workload.Frame, 65) },
		"frame-fn-negative":  func(w *workload.State) { w.Stack = append(w.Stack, workload.Frame{Fn: -1}) },
		"frame-fn-high":      func(w *workload.State) { w.Stack = append(w.Stack, workload.Frame{Fn: nf}) },
		"frame-block-high":   func(w *workload.State) { w.Stack = append(w.Stack, workload.Frame{ResumeBlk: 1 << 30}) },
		"frame-block-neg":    func(w *workload.State) { w.Stack = append(w.Stack, workload.Frame{ResumeBlk: -1}) },
		"fn-negative":        func(w *workload.State) { w.Fn = -1 },
		"fn-high":            func(w *workload.State) { w.Fn = nf },
		"block-negative":     func(w *workload.State) { w.Blk = -1 },
		"block-high":         func(w *workload.State) { w.Blk = nb },
		"pos-negative":       func(w *workload.State) { w.Pos = -1 },
		"pos-high":           func(w *workload.State) { w.Pos = ni },
		"mode-unknown":       func(w *workload.State) { w.Mode = 3 },
		"working-set-neg":    func(w *workload.State) { w.WSStart = -1 },
		"working-set-high":   func(w *workload.State) { w.WSStart = nf },
		"requests-negative":  func(w *workload.State) { w.Requests = -1 },
		"emitted-off-cursor": func(w *workload.State) { w.Emitted++ },
		"emitted-behind-ftq": func(w *workload.State) { w.Emitted-- },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			bad := good
			w := *good.Walker
			w.Stack = append([]workload.Frame(nil), good.Walker.Stack...)
			corrupt(&w)
			bad.Walker = &w
			if err := restore(fresh(workload.NewWalker(prog)), &bad); err == nil {
				t.Fatal("corrupted walker image restored without error")
			}
		})
	}

	// The image, not the fresh source's type, picks the restore path: a
	// walker image cannot be installed into any other source.
	if err := restore(fresh(trace.NewLoop(make([]trace.Instr, 8))), &good); err == nil {
		t.Error("walker image restored into a non-walker source")
	}
}

// restore installs st into the fresh machine m through its snap
// encoding, as checkpoint.Resume installs a state block.
func restore(m *Machine, st *MachineState) error {
	state, err := snap.Marshal(st)
	if err != nil {
		return err
	}
	return m.RestoreEncoded(state)
}
