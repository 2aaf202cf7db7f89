package trace

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"
)

// maxFuzzRecords is the most ChampSim records FuzzChampSim decodes.
const maxFuzzRecords = 4

// maxFuzzReads caps FuzzReader's read loop. A small gzip stream can
// inflate to any number of records, and, as with maxFuzzRecords, a
// longer loop only gives the minimizer longer inputs to stall on.
const maxFuzzReads = 32

// FuzzReader feeds arbitrary bytes, plain or gzip-wrapped, to the UBST
// reader. It must never panic, and every instruction it decodes passes
// Validate; once a Read fails, every later Read returns the same error,
// and Err reports it unless it is io.EOF. A plain record takes at least
// two bytes, so a plain stream ends within len(data)/2 reads. Seeded
// with a stream NewWriter wrote, both ways.
func FuzzReader(f *testing.F) {
	ins := randomStream(rand.New(rand.NewSource(5)), 24)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, compress)
		if err != nil {
			f.Fatal(err)
		}
		for _, in := range ins {
			if err := w.Write(in); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), compress)
		f.Add(buf.Bytes()[:buf.Len()/2], compress)
	}
	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		r, err := NewReader(bytes.NewReader(data), compressed)
		if err != nil {
			return
		}
		defer r.Close()
		for n := 0; n < maxFuzzReads; n++ {
			in, err := r.Read()
			if err != nil {
				if _, again := r.Read(); again != err {
					t.Fatalf("Read after %v returned %v", err, again)
				}
				if got := r.Err(); (got == nil) != (err == io.EOF) {
					t.Fatalf("Err() = %v after Read returned %v", got, err)
				}
				return
			}
			if err := Validate(in); err != nil {
				t.Fatalf("record %d decoded: %v", n, err)
			}
			if !compressed && n >= len(data)/2 {
				t.Fatalf("%d records decoded from %d plain bytes", n+1, len(data))
			}
		}
	})
}

// FuzzChampSim feeds arbitrary bytes to the ChampSim decoder. It must
// never panic, and the stream is fixed-width: k whole records emit
// max(k-1, 0) instructions (the last has no successor), each with a
// size in [1,15], and a trailing partial record is an error. Seeded
// with a few records of testdata/tiny.champsim.
//
// Only the first maxFuzzRecords records are decoded. With more, a
// longer stream reaches new loop-count coverage, and minimizing each
// such input stalls the fuzzer for tens of seconds.
func FuzzChampSim(f *testing.F) {
	fixture, err := os.ReadFile("testdata/tiny.champsim")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture[:3*champSimRecordBytes])
	f.Add(fixture[7*champSimRecordBytes : 10*champSimRecordBytes+champSimRecordBytes/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxFuzzRecords*champSimRecordBytes)]
		c := NewChampSim(bytes.NewReader(data))
		want := max(len(data)/champSimRecordBytes-1, 0)
		n := 0
		for ; n <= want; n++ {
			in, ok := c.Next()
			if !ok {
				break
			}
			if in.Size < 1 || in.Size > 15 {
				t.Fatalf("instruction %d has size %d", n, in.Size)
			}
		}
		if n != want {
			t.Fatalf("%d instructions from %d bytes, want %d", n, len(data), want)
		}
		if partial := len(data)%champSimRecordBytes != 0; (c.Err() != nil) != partial {
			t.Fatalf("Err() = %v with %d trailing bytes", c.Err(), len(data)%champSimRecordBytes)
		}
	})
}
