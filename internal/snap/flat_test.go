package snap_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ubscache/internal/icache"
	"ubscache/internal/sim"
	"ubscache/internal/snap"
	"ubscache/internal/ubs"
)

// Synthetic flat types covering what the state types may not: padding
// around bools and narrow scalars, platform ints and uints, nested
// arrays and arrays of structs, and a layout with no padding at all.
type (
	padded struct {
		A bool
		B uint64
		C int16
		D bool
		E float32
	}
	platform struct {
		N int
		U uint
		F bool
		M [2]int
	}
	nested struct {
		Grid [3][2]uint16
		Ps   [2]padded
		Flag [3]bool
		Tail int8
	}
	dense struct {
		X, Y uint32
		Z    [2]float64
	}
	skipping struct {
		A       uint32
		scratch int `snap:"-"`
		B       bool
	}
)

// TestFlatPathsAgree is the differential test of the codec's two flat
// paths: for every flat type in a machine image and the synthetic ones,
// the run path and the leaf-by-leaf path encode random values to the
// same bytes, decode them back to the same values, and both reject a
// bool byte other than 0 or 1.
func TestFlatPathsAgree(t *testing.T) {
	roots := []any{
		sim.MachineState{}, icache.ConventionalState{}, icache.SmallBlockState{},
		icache.DistillState{}, ubs.State{},
		padded{}, platform{}, nested{}, dense{}, skipping{},
	}
	seen := map[reflect.Type]bool{}
	var types []reflect.Type
	for _, r := range roots {
		for _, ft := range snap.FlatTypes(reflect.TypeOf(r)) {
			if !seen[ft] {
				seen[ft] = true
				types = append(types, ft)
			}
		}
	}
	for _, want := range []any{padded{}, platform{}, nested{}, dense{}, skipping{}} {
		if !seen[reflect.TypeOf(want)] {
			t.Fatalf("%T is not flat", want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, ft := range types {
		t.Run(ft.String(), func(t *testing.T) {
			const n = 5
			st := reflect.SliceOf(ft)
			in := reflect.MakeSlice(st, n, n)
			for i := 0; i < n; i++ {
				fill(rng, in.Index(i))
			}
			runs, leaves := snap.EncodePaths(in)
			if !bytes.Equal(runs, leaves) {
				t.Fatalf("run path encodes %x, leaf path %x", runs, leaves)
			}
			r, l, rerr, lerr := snap.DecodePaths(st, runs)
			if rerr != nil || lerr != nil {
				t.Fatalf("decoding: run path %v, leaf path %v", rerr, lerr)
			}
			if !reflect.DeepEqual(r.Interface(), in.Interface()) || !reflect.DeepEqual(l.Interface(), in.Interface()) {
				t.Fatalf("decoded values differ:\n in:     %v\n runs:   %v\n leaves: %v", in, r, l)
			}
			bools := snap.BoolOffsets(ft)
			if len(bools) == 0 {
				return
			}
			bad := append([]byte(nil), runs...)
			bad[(n-1)*(len(runs)/n)+bools[len(bools)-1]] = 2
			_, _, rerr, lerr = snap.DecodePaths(st, bad)
			for path, err := range map[string]error{"run": rerr, "leaf": lerr} {
				if err == nil || !strings.Contains(err.Error(), "invalid bool byte 0x02") {
					t.Errorf("%s path on bool byte 2: %v", path, err)
				}
			}
		})
	}
	// On a little-endian host with 8-byte ints every flat type takes the
	// run path; were one to fall back, the comparison above would set
	// the leaf path against itself.
	if binary.NativeEndian.Uint16([]byte{1, 0}) == 1 && reflect.TypeOf(0).Size() == 8 {
		for _, ft := range types {
			if !snap.UsesRuns(ft) {
				t.Errorf("%s takes the leaf path on a little-endian 64-bit host", ft)
			}
		}
	}
}

// fill sets every encoded leaf of v to a random value; floats stay
// finite, so decoded values compare equal.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> (64 - 8*v.Type().Size()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> (64 - 8*v.Type().Size()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(float32(rng.NormFloat64())))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("snap") != "-" {
				fill(rng, v.Field(i))
			}
		}
	}
}
