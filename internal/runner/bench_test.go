package runner

import "testing"

// BenchmarkWarmSweep times a warm `-exp all -per-family 1 -warmup 5000
// -measure 10000` sweep: every op re-renders every experiment through a
// fresh Store over a result cache the benchmark populates before the
// timer starts, so an op reads back each timed point and functional
// pass and simulates nothing.
func BenchmarkWarmSweep(b *testing.B) {
	spec := goldenTablesSpec(1)
	dir := b.TempDir()
	if _, err := (&Sweep{Spec: spec, Store: NewStore(dir)}).Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := NewStore(dir)
		store.SimWorkload = failRecompute
		if _, err := (&Sweep{Spec: spec, Store: store}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
