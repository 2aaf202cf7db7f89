package checkpoint

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"ubscache/internal/sim"
)

// BenchmarkCodec times the checkpoint codec alone on a mid-run
// server_001/ubs image (the golden one, ~2.2 MB): Encode from a
// snapshotted MachineState, and Decode back to one.
func BenchmarkCodec(b *testing.B) {
	data := goldenImage(b, "server_001", "ubs")
	meta, st, err := Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Encode(meta, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWrite times what perfbench's checkpoint_write_ms times short
// of the file write: Snapshot of the golden server_001/ubs machine (run
// as goldenImage runs it) into a fresh MachineState, then Encode. Each
// op starts on a collected heap.
func BenchmarkWrite(b *testing.B) {
	p := sim.DefaultParams()
	p.Warmup, p.Measure = 50_000, 200_000
	m, w := freshMachine(b, context.Background(), p, "server_001", "ubs")
	if err := m.Advance(100_000); err != nil {
		b.Fatal(err)
	}
	meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "ubs", Params: p}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		var st sim.MachineState
		if err := m.Snapshot(&st); err != nil {
			b.Fatal(err)
		}
		if _, err := Encode(meta, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResume times Resume of the golden server_001/ubs image from
// its file: the read and parse, the workload's walker over the program
// (shared with the run that wrote the image), the machine's assembly
// and the in-place decode of the state. Each op starts on a collected
// heap, as perfbench's resume_ms samples do.
func BenchmarkResume(b *testing.B) {
	path := filepath.Join(b.TempDir(), "golden.ubsc")
	if err := WriteFileAtomic(path, goldenImage(b, "server_001", "ubs")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		r, err := Resume(context.Background(), path, ResumeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
