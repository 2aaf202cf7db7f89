package checkpoint

import (
	"context"
	"math"
	"testing"

	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
	"ubscache/internal/snap"
	"ubscache/internal/ubs"
)

// editFrontend returns an edit of the design's snap-encoded frontend
// state, decoded as S.
func editFrontend[S any](edit func(*S)) func(*testing.T, *sim.MachineState) {
	return func(t *testing.T, st *sim.MachineState) {
		t.Helper()
		var fe S
		if err := snap.Unmarshal(st.Frontend, &fe); err != nil {
			t.Fatal(err)
		}
		edit(&fe)
		data, err := snap.Marshal(&fe)
		if err != nil {
			t.Fatal(err)
		}
		st.Frontend = data
	}
}

// TestRestoreRejectsOutOfRange edits one field of a decoded, CRC-valid
// image per case to a value no machine produces. Restore must return an
// error: accepted, each would index past a table in a later Advance, be
// silently ignored, or stall the machine for good.
func TestRestoreRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name, design string
		edit         func(*testing.T, *sim.MachineState)
	}{
		{"bpu-ras-top", "ubs", func(_ *testing.T, st *sim.MachineState) { st.BPU.RASTop = 1 << 20 }},
		{"smallblock-buffer-pos", "smallblock16", editFrontend(func(st *icache.SmallBlockState) { st.Buffer.Pos = 1 << 20 })},
		{"acic-bypass-len", "acic", editFrontend(func(st *icache.ConventionalState) { st.ACIC.Bypass = make([]uint64, 64) })},
		{"acic-pos", "acic", editFrontend(func(st *icache.ConventionalState) { st.ACIC.Pos = 1 << 20 })},
		{"ghrp-tables-nil", "ghrp", editFrontend(func(st *icache.ConventionalState) { st.Cache.Policy.Tables = nil })},
		{"ubs-pred-mask", "ubs", editFrontend(func(st *ubs.State) { st.Pred.Entries[0].Mask = 1 << 40 })},
		{"ubs-way-extent", "ubs", editFrontend(func(st *ubs.State) {
			st.Ways[0] = ubs.WayEntry{Valid: true, Start: math.MaxInt, Stored: 1}
		})},
		{"core-block-reason", "ubs", func(_ *testing.T, st *sim.MachineState) { st.Core.BlockReason = 200 }},
		{"ftq-regions", "ubs", func(_ *testing.T, st *sim.MachineState) { st.FTQ.Regions = 1 << 20 }},
		{"ftq-prefetch-cursor", "ubs", func(_ *testing.T, st *sim.MachineState) { st.FTQ.PrefCursor = st.FTQ.EnqueuedTot + 1 }},
		{"mshr-heap-order", "ubs", func(_ *testing.T, st *sim.MachineState) {
			st.Hierarchy.L2.MSHR.Entries = []mem.MSHREntry{{Done: 9, Block: 1}, {Done: 1, Block: 2}}
		}},
		{"sample-stride", "ubs", func(_ *testing.T, st *sim.MachineState) { st.EffStride = 0 }},
		// The cases below pass every layer's own checks but stop the
		// machine for good: Advance without a context never returns.
		{"ftq-blocked-unresolvable", "ubs", func(_ *testing.T, st *sim.MachineState) {
			st.FTQ.Blocked, st.Core.WaitMispredict, st.Core.RedirectAt = true, false, 0
			for i := range st.FTQ.Queue {
				st.FTQ.Queue[i].Mispredict = false
			}
		}},
		{"core-wait-without-mispredict", "ubs", func(_ *testing.T, st *sim.MachineState) {
			st.FTQ.Blocked, st.Core.WaitMispredict, st.Core.RedirectAt = true, true, 0
			for i := range st.Core.Decode {
				st.Core.Decode[i].Item.Mispredict = false
			}
		}},
		{"core-fetch-blocked-far", "ubs", func(_ *testing.T, st *sim.MachineState) { st.Core.FetchBlocked = st.Core.Clock + 1<<40 }},
		{"core-redirect-far", "ubs", func(_ *testing.T, st *sim.MachineState) {
			st.FTQ.Blocked, st.Core.WaitMispredict, st.Core.RedirectAt = true, true, st.Core.Clock+1<<40
		}},
		{"rob-done-far", "ubs", func(_ *testing.T, st *sim.MachineState) {
			for i := range st.Core.ROB {
				st.Core.ROB[i].Done = st.Core.Clock + 1<<40
			}
		}},
		{"done-ring-far", "ubs", func(_ *testing.T, st *sim.MachineState) {
			for i := range st.Core.DoneRing {
				st.Core.DoneRing[i] = st.Core.Clock + 1<<40
			}
		}},
		{"mshr-done-far", "ubs", func(_ *testing.T, st *sim.MachineState) {
			// A full L3 MSHR file that never drains.
			st.Hierarchy.L3.MSHR.Entries = st.Hierarchy.L3.MSHR.Entries[:0]
			for b := 0; b < mem.DefaultHierarchyConfig().L3MSHRs; b++ {
				st.Hierarchy.L3.MSHR.Entries = append(st.Hierarchy.L3.MSHR.Entries, mem.MSHREntry{Done: st.Core.Clock + 1<<40, Block: uint64(b) << 6})
			}
		}},
		{"l1i-mshr-done-far", "ubs", func(t *testing.T, st *sim.MachineState) {
			// A full L1-I MSHR file that never drains; the frontend's
			// image is opaque to sim.
			far := st.Core.Clock + 1<<40
			editFrontend(func(fe *ubs.State) {
				fe.Engine.MSHR.Entries = fe.Engine.MSHR.Entries[:0]
				for b := 0; b < ubs.DefaultConfig().MSHRs; b++ {
					fe.Engine.MSHR.Entries = append(fe.Engine.MSHR.Entries, mem.MSHREntry{Done: far, Block: uint64(b+1) << 6})
				}
			})(t, st)
		}},
		{"dram-busy-far", "ubs", func(_ *testing.T, st *sim.MachineState) {
			for i := range st.Hierarchy.DRAM.Busy {
				st.Hierarchy.DRAM.Busy[i] = st.Core.Clock + 1<<40
			}
		}},
	}
	p := testParams()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, st, err := Decode(encodeAt(t, p, "spec_001", tc.design, 1_000))
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(t, st)
			m, _ := freshMachine(t, context.Background(), p, "spec_001", tc.design)
			if err := m.Restore(st); err == nil {
				t.Fatal("Restore accepted the edited image")
			} else {
				t.Log(err)
			}
		})
	}
}
