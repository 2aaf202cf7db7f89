package checkpoint

import (
	"testing"
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
