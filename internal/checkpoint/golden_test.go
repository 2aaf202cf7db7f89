package checkpoint

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// goldenDigests pins the checkpoint wire format on real machine images:
// the SHA-256 and length of Encode's output for each workload/design,
// snapshotted 100k measured instructions into a 50k-warmup run. The
// round-trip tests cannot see a format change that is the same on both
// sides; these digests can.
var goldenDigests = map[string]struct {
	size   int
	sha256 string
}{
	"server_001/ubs":          {2237813, "3c0139670457bddb6649e1db07e74ee12a20e4e6b6e5ea05297af48f7124117d"},
	"server_001/conv:32":      {2204820, "dacba5fcfda5edf497f87d1197bd4d836f360ac7945b5ec43afd2ad399315021"},
	"server_001/smallblock16": {2280356, "b0d08df02437128fe848e3066bb79e5284adbd10f376fd438837a90dc2b8a3cb"},
	"server_001/distill":      {2229159, "c220038fa24c171d0c46e5f683c5dc2ad295fff501be7127312dd404ac7b73c5"},
	"server_001/ghrp":         {2217105, "81c5022e67ac6519552af0b3a8867060b038af6d9ec775dacacf015236ac666f"},
	"spec_001/ubs":            {2242106, "6a3b9a43df49ecbccb4d051bfc062361c92daa4d558a6de4acc006bbd41c2a15"},
	"spec_001/conv:32":        {2209113, "c56451358d59aeb4e583605c57bf45231b9113e1458a08f7955e86f2a6ead697"},
	"spec_001/smallblock16":   {2284649, "4b7b251381d55682e110c47af0aa72dc66726304d40a74c61a143d36493dfa8d"},
	"spec_001/distill":        {2233452, "f3d3c114b7a221549bcf2c4b3a8a44e756484482c8c827fdcb8c525410d1e4f3"},
	"spec_001/ghrp":           {2221398, "400c6dadd25c838a23d5b4ea30fb081399502291504c641e3f690bb1060a804f"},
}

// goldenImage encodes the checkpoint of workload on design at the golden
// position.
func goldenImage(tb testing.TB, workload, design string) []byte {
	p := sim.DefaultParams()
	p.Warmup = 50_000
	p.Measure = 200_000
	return encodeAt(tb, p, workload, design, 100_000)
}

// encodeAt encodes the checkpoint of workload on design, run under p to
// at measured instructions.
func encodeAt(tb testing.TB, p sim.Params, workload, design string, at uint64) []byte {
	tb.Helper()
	m, w := freshMachine(tb, context.Background(), p, workload, design)
	if err := m.Advance(at); err != nil {
		tb.Fatal(err)
	}
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		tb.Fatal(err)
	}
	data, err := Encode(Meta{Workload: w.Spec, WorkloadName: w.Name, Design: design, Params: p}, &st)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// freshMachine builds an unstarted machine for workload on design under
// p, honouring ctx at heartbeats.
func freshMachine(tb testing.TB, ctx context.Context, p sim.Params, workload, design string) (*sim.Machine, workloadspec.Workload) {
	tb.Helper()
	w, err := workloadspec.ParseWorkload(workload)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := sim.ParseDesign(design)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := w.NewSource()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sim.NewMachine(ctx, p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		tb.Fatal(err)
	}
	return m, w
}

func TestGoldenDigests(t *testing.T) {
	for _, workload := range []string{"server_001", "spec_001"} {
		for _, design := range []string{"ubs", "conv:32", "smallblock16", "distill", "ghrp"} {
			key := workload + "/" + design
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				data := goldenImage(t, workload, design)
				sum := sha256.Sum256(data)
				want := goldenDigests[key]
				if got := hex.EncodeToString(sum[:]); len(data) != want.size || got != want.sha256 {
					t.Errorf("checkpoint bytes changed: got %d bytes sha256 %s, want %d bytes sha256 %s", len(data), got, want.size, want.sha256)
				}
			})
		}
	}
}
