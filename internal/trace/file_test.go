package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// randomStream builds a structurally valid instruction stream for round-trip
// testing: sequential PCs with occasional taken branches, loads/stores, deps.
func randomStream(rng *rand.Rand, n int) []Instr {
	ins := make([]Instr, 0, n)
	pc := uint64(0x400000)
	mem := uint64(0x10000000)
	for i := 0; i < n; i++ {
		in := Instr{PC: pc, Size: 4}
		switch rng.Intn(10) {
		case 0:
			in.Class = ClassCondBranch
			in.Taken = rng.Intn(2) == 0
			in.Target = pc + uint64(rng.Intn(4096)+4)&^3 - 2048
		case 1:
			in.Class = ClassLoad
			mem += uint64(rng.Intn(256)) * 8
			in.MemAddr = mem
		case 2:
			in.Class = ClassStore
			in.MemAddr = mem + 64
		case 3:
			in.Class = ClassCall
			in.Taken = true
			in.Target = 0x500000 + uint64(rng.Intn(1024))*4
		case 4:
			in.Class = ClassReturn
			in.Taken = true
			in.Target = pc + 4 // arbitrary valid target
		default:
			in.Class = ClassOther
		}
		if rng.Intn(3) == 0 {
			in.Dep1 = uint16(rng.Intn(64) + 1)
		}
		if rng.Intn(5) == 0 {
			in.Dep2 = uint16(rng.Intn(64) + 1)
		}
		if in.TakenBranch() && in.Target == 0 {
			in.Target = 4
		}
		ins = append(ins, in)
		pc = in.NextPC()
	}
	return ins
}

func roundTrip(t *testing.T, ins []Instr, compress bool) []Instr {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, compress)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, in := range ins {
		if err := w.Write(in); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if w.Count() != uint64(len(ins)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(ins))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(&buf, compress)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got []Instr
	for {
		in, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		got = append(got, in)
	}
	return got
}

func TestFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ins := randomStream(rng, 5000)
	for _, compress := range []bool{false, true} {
		got := roundTrip(t, ins, compress)
		if len(got) != len(ins) {
			t.Fatalf("compress=%v: got %d instrs, want %d", compress, len(got), len(ins))
		}
		for i := range ins {
			if got[i] != ins[i] {
				t.Fatalf("compress=%v: instr %d mismatch:\n got %+v\nwant %+v", compress, i, got[i], ins[i])
			}
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	// Property: any structurally valid stream round-trips exactly.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		ins := randomStream(rand.New(rand.NewSource(seed)), n)
		got := roundTrip(t, ins, false)
		return reflect.DeepEqual(got, ins)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFileRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Instr{PC: 1, Size: 0}); err == nil {
		t.Error("zero-size instruction accepted")
	}
}

// TestReaderRejectsInvalidRecord reads a stream whose 21st record is an
// instruction of size zero, which no Writer emits. Passed on, it used to
// panic the UBS frontend's range mask; the reader must stop there with a
// sticky ErrBadFormat.
func TestReaderRejectsInvalidRecord(t *testing.T) {
	ins := randomStream(rand.New(rand.NewSource(3)), 20)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A plain instruction at the next PC (head: class 0, pcIsSeq) of
	// size 0, then a valid one of size 4.
	data := append(buf.Bytes(), 0x80, 0x00, 0x80, 0x04)
	r, err := NewReader(bytes.NewReader(data), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if _, err := r.Read(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	_, err = r.Read()
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("zero-size record: Read returned %v, want ErrBadFormat", err)
	}
	if _, again := r.Read(); again != err {
		t.Errorf("Read after %v returned %v", err, again)
	}
	if r.Err() != err {
		t.Errorf("Err() = %v, want %v", r.Err(), err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("JUNK\x01\x00\x00")), false); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("UBST\x63\x00\x00")), false); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("UB")), false); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ins := randomStream(rng, 100)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	for _, in := range ins {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Chop the stream mid-record; the reader must return a non-nil error
	// (either io.ErrUnexpectedEOF mid-record or io.EOF at a record edge)
	// and never loop forever.
	cut := buf.Len() / 2
	r, err := NewReader(bytes.NewReader(buf.Bytes()[:cut]), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ins)+1; i++ {
		if _, err := r.Read(); err != nil {
			return // done: terminated with error as expected
		}
	}
	t.Error("reader consumed more records than were written")
}

func TestFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.ubst", "t.ubst.gz"} {
		path := filepath.Join(dir, name)
		ins := randomStream(rand.New(rand.NewSource(11)), 300)
		n, err := WriteAll(path, NewSlice(ins))
		if err != nil {
			t.Fatalf("%s: WriteAll: %v", name, err)
		}
		if n != 300 {
			t.Fatalf("%s: wrote %d", name, n)
		}
		got, err := ReadAll(path)
		if err != nil {
			t.Fatalf("%s: ReadAll: %v", name, err)
		}
		if !reflect.DeepEqual(got, ins) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.ubst")); err == nil {
		t.Error("Open of missing file succeeded")
	}
}

func TestReaderAsSource(t *testing.T) {
	ins := randomStream(rand.New(rand.NewSource(3)), 50)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	for _, in := range ins {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, err := NewReader(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 1000)
	if len(got) != 50 {
		t.Fatalf("Source yielded %d, want 50", len(got))
	}
	if r.Err() != nil {
		t.Errorf("Err() = %v after clean EOF", r.Err())
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
}

func TestCompressionShrinks(t *testing.T) {
	ins := randomStream(rand.New(rand.NewSource(4)), 20000)
	var raw, gz bytes.Buffer
	w, _ := NewWriter(&raw, false)
	for _, in := range ins {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w2, _ := NewWriter(&gz, true)
	for _, in := range ins {
		if err := w2.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	if gz.Len() >= raw.Len() {
		t.Errorf("gzip stream (%d) not smaller than raw (%d)", gz.Len(), raw.Len())
	}
	// Sanity: encoding is compact — well under the 34-byte naive record size.
	if perIns := float64(raw.Len()) / float64(len(ins)); perIns > 8 {
		t.Errorf("raw encoding %.1f bytes/instruction, want <= 8", perIns)
	}
}

func TestVariableSizeRoundTrip(t *testing.T) {
	// Variable-length (x86-like) instruction streams round-trip exactly.
	rng := rand.New(rand.NewSource(77))
	var ins []Instr
	pc := uint64(0x400000)
	for i := 0; i < 3000; i++ {
		in := Instr{PC: pc, Size: uint8(1 + rng.Intn(14)), Class: ClassOther}
		if rng.Intn(8) == 0 {
			in.Class = ClassDirectJump
			in.Taken = true
			in.Target = pc + uint64(rng.Intn(4096)) + 1
		}
		ins = append(ins, in)
		pc = in.NextPC()
	}
	got := roundTrip(t, ins, true)
	if !reflect.DeepEqual(got, ins) {
		t.Fatal("variable-size stream did not round-trip")
	}
}
