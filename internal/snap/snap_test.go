package snap

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type inner struct {
	A uint64
	B []float64
}

type outer struct {
	Flag    bool
	I8      int8
	I16     int16
	I32     int32
	I64     int64
	N       int
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	F32     float32
	F64     float64
	S       string
	Bytes   []uint8
	Fixed   [3]uint32
	Sub     inner
	Ptr     *inner
	NilPtr  *inner
	Nested  [][]int8
	scratch int `snap:"-"`
}

func sample() outer {
	return outer{
		Flag: true, I8: -5, I16: -300, I32: -70000, I64: -1 << 40, N: 42,
		U8: 200, U16: 60000, U32: 4_000_000_000, U64: 1 << 60,
		F32: 1.5, F64: -2.25, S: "hello",
		Bytes: []uint8{1, 2, 3},
		Fixed: [3]uint32{7, 8, 9},
		Sub:   inner{A: 11, B: []float64{0.5, 0.25}},
		Ptr:   &inner{A: 99, B: nil},
		Nested: [][]int8{
			{1, -1}, {}, {127},
		},
		scratch: 17,
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	data, err := Marshal(&in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out outer
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// The contract is byte-level: re-encoding the decoded value must
	// reproduce the original stream (nil and empty slices both encode as
	// length 0, so DeepEqual is too strict here).
	again, err := Marshal(&out)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip not byte-identical:\n in:  %+v\n out: %+v", in, out)
	}
	if out.scratch != 0 {
		t.Fatal("snap:\"-\" field was carried")
	}
	if out.S != "hello" || out.Ptr == nil || out.Ptr.A != 99 || out.NilPtr != nil ||
		!reflect.DeepEqual(out.Fixed, [3]uint32{7, 8, 9}) {
		t.Fatalf("decoded value wrong: %+v", out)
	}
}

func TestDeterministic(t *testing.T) {
	in := sample()
	a, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same value differ")
	}
}

func TestSliceCapacityReuse(t *testing.T) {
	in := inner{A: 1, B: []float64{1, 2, 3}}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out := inner{B: make([]float64, 0, 16)}
	backing := out.B[:1]
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if &backing[0] != &out.B[0] {
		t.Fatal("decode did not reuse the existing slice backing")
	}
}

func TestTruncationRejected(t *testing.T) {
	in := sample()
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		var out outer
		if err := Unmarshal(data[:n], &out); err == nil {
			t.Fatalf("truncation to %d bytes not rejected", n)
		}
	}
	var out outer
	if err := Unmarshal(append(append([]byte(nil), data...), 0), &out); err == nil {
		t.Fatal("trailing garbage not rejected")
	}
}

func TestHugeSliceLengthRejected(t *testing.T) {
	// A corrupted length prefix must not drive a giant allocation.
	data := []byte{0xff, 0xff, 0xff, 0x7f}
	var out []uint64
	if err := Unmarshal(data, &out); err == nil {
		t.Fatal("oversized slice length not rejected")
	}
}

func TestUnsupportedKinds(t *testing.T) {
	type bad struct{ M map[string]int }
	if _, err := Marshal(&bad{M: map[string]int{}}); err == nil {
		t.Fatal("map not rejected")
	}
	// The error names the first unexported field, not a later one.
	type unexp struct {
		A    int
		a, b int
	}
	_, err := Marshal(&unexp{a: 1})
	if err == nil || !strings.Contains(err.Error(), "unexp.a is unexported") {
		t.Fatalf("unexported field not rejected by name: %v", err)
	}
}

// TestUnsupportedErrorsAreLazy pins that a type the codec cannot encode
// fails only when a value of it is reached: a nil pointer to it and an
// empty slice of it encode.
func TestUnsupportedErrorsAreLazy(t *testing.T) {
	type bad struct{ M map[string]int }
	type holder struct {
		P *bad
		S []bad
	}
	data, err := Marshal(&holder{})
	if err != nil {
		t.Fatalf("nil pointer and empty slice of an unsupported type: %v", err)
	}
	if want := []byte{0, 0, 0, 0, 0}; !bytes.Equal(data, want) {
		t.Fatalf("encoded %x, want %x", data, want)
	}
	var back holder
	if err := Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if _, err := Marshal(&holder{S: []bad{{}}}); err == nil {
		t.Fatal("non-empty slice of an unsupported type not rejected")
	}
	if _, err := Marshal(&holder{P: &bad{}}); err == nil {
		t.Fatal("non-nil pointer to an unsupported type not rejected")
	}
}

// TestInvalidBoolRejected pins the bool check on every path, including
// a slice of flat structs decoded straight into memory.
func TestInvalidBoolRejected(t *testing.T) {
	type entry struct {
		Tag   uint64
		Valid bool
	}
	in := []entry{{Tag: 1, Valid: true}, {Tag: 2}}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	data[4+8+1+8] = 2 // the second entry's Valid
	var out []entry
	if err := Unmarshal(data, &out); err == nil || !strings.Contains(err.Error(), "invalid bool byte 0x02") {
		t.Fatalf("bool byte 2 in a flat slice: got %v", err)
	}
	if err := Unmarshal([]byte{2}, new(bool)); err == nil {
		t.Fatal("bool byte 2 not rejected")
	}
}

// TestConcurrentUse encodes and decodes from several goroutines at once,
// so the race detector sees plans compiled and read concurrently. The
// type is local to this test, so its plan is first built here.
func TestConcurrentUse(t *testing.T) {
	type local struct {
		O outer
		L []outer
	}
	in := local{O: sample(), L: []outer{sample()}}
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data, err := Marshal(&in)
			if err != nil {
				t.Error(err)
				return
			}
			var out local
			if err := Unmarshal(data, &out); err != nil {
				t.Error(err)
				return
			}
			got[g] = data
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !bytes.Equal(got[g], got[0]) {
			t.Fatalf("goroutine %d encoded differently", g)
		}
	}
}
