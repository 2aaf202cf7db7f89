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
	"server_001/ubs":          {2243989, "936e88ee0df99c33c4fae6960072229119a327eb4006d2ca4fbce3a2c62f8f40"},
	"server_001/conv:32":      {2210996, "cfeb1d5dde5c659191593806315d8f81b60b0c0cd522421f20d1b741767992cc"},
	"server_001/smallblock16": {2286532, "efe069b7e335ca65d5800997b61961697088d7731448c7fc7fe160ef28ebb68b"},
	"server_001/distill":      {2235335, "7381c135fa50155d562d426ebc6c1943c0edf1577553591c907452bcd375e1a6"},
	"server_001/ghrp":         {2223293, "49faf5f3f5990ccd56606026d46749a53c202f43ee4830e4a2819144d0415d95"},
	"spec_001/ubs":            {2248282, "36d52d1c92097e6dc356fab0a23c29c2a01a3a3c6904b52bfe8c257d86efa066"},
	"spec_001/conv:32":        {2215289, "b1621af78ce920027f3dfa54684b620c7ac1b15b1ef6c0e9d86133cbfb51f2c7"},
	"spec_001/smallblock16":   {2290825, "34c8c7cd7f608fa3a6ca610b788f83f59080e8b1b89a78d8f1b800c4fed3ae11"},
	"spec_001/distill":        {2239628, "1abdcce425bf529c17441073980c332f67903037fd41774c02e2a4308cee0494"},
	"spec_001/ghrp":           {2227586, "668ab7eec62f6c3eefbc9b385db307a3995d11751390b2fcd5e802fbfdd010fe"},
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
