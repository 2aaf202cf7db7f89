package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"unsafe"
)

// This file is the only one in snap that uses unsafe. It serves flat
// types: types whose every leaf is a fixed-width scalar (bool, sized or
// platform ints and uints, floats) reached through arrays and structs,
// with no pointers anywhere. A flat value is encoded and decoded straight
// from and into memory. Each type's layout is compiled once, when its
// plan is built, into copy runs: stretches of memory whose bytes are
// their wire bytes, which a little-endian host has for every fixed-width
// scalar (a platform int or uint only where it is 8 bytes wide). A
// padded layout copies each value run by run; one without padding copies
// a whole slice at once. Where some leaf's memory differs from its wire
// form (a big-endian host, a 4-byte int), the layout keeps the leaf loop:
// each scalar is loaded or stored natively and converted with
// encoding/binary. Both paths write the same bytes. Flat memory holds no
// pointers, so the raw stores need no write barrier.

// Leaf operations: how one scalar is written and read.
const (
	opBool uint8 = iota // 1 byte, 0 or 1
	op1                 // 1 byte
	op2                 // 2 bytes
	op4                 // 4 bytes (int32, uint32, float32 bits)
	op8                 // 8 bytes (int64, uint64, float64 bits)
	opInt               // platform int, widened to 8 bytes
	opUint              // platform uint, widened to 8 bytes
)

// leaf is one scalar of a flat layout.
type leaf struct {
	off  uintptr
	op   uint8
	wire int          // its size on the wire
	typ  reflect.Type // for overflow errors
}

// run is a stretch of a flat value whose memory bytes are its wire
// bytes, copied with one copy.
type run struct {
	mem  uintptr // offset in memory
	wire int     // offset on the wire
	n    int     // length in bytes
}

// layout is the compiled shape of a flat type.
type layout struct {
	leaves []leaf
	stride uintptr // the type's size in memory
	wire   int     // its size on the wire
	// runs replace the leaf loop when every leaf's memory bytes are its
	// wire bytes on this host; nil otherwise.
	runs []run
	// bools holds the wire offset of every bool leaf, which the run path
	// checks before it copies a value in.
	bools []int
	// whole marks a layout without padding (one run spanning the
	// stride), whose slices copy as one run.
	whole bool
}

// littleEndian reports whether this host stores scalars in wire order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// layoutOf returns t's layout, or false when t is not flat.
func layoutOf(t reflect.Type) (*layout, bool) {
	l := &layout{stride: t.Size()}
	if !l.add(t, 0) {
		return nil, false
	}
	l.compileRuns()
	return l, true
}

// compileRuns merges neighbouring leaves into runs when every leaf's
// memory bytes are its wire bytes, and leaves runs nil otherwise.
func (l *layout) compileRuns() {
	var runs []run
	raw, wire := true, 0
	for _, f := range l.leaves {
		if f.op == opBool {
			l.bools = append(l.bools, wire)
		}
		raw = raw && rawLeaf(f.op)
		if k := len(runs) - 1; k >= 0 && runs[k].mem+uintptr(runs[k].n) == f.off {
			runs[k].n += f.wire
		} else {
			runs = append(runs, run{mem: f.off, wire: wire, n: f.wire})
		}
		wire += f.wire
	}
	if raw {
		l.runs = runs
		l.whole = len(runs) == 1 && runs[0].mem == 0 && uintptr(runs[0].n) == l.stride
	}
}

// rawLeaf reports whether a leaf of op has its wire bytes in memory on
// this host. A bool's memory byte is 0 or 1, its wire byte.
func rawLeaf(op uint8) bool {
	switch {
	case op == opBool || op == op1:
		return true
	case !littleEndian:
		return false
	case op == opInt || op == opUint:
		return bits.UintSize == 64
	}
	return true
}

// add appends the leaves of a t at offset off, reporting whether t is
// flat.
func (l *layout) add(t reflect.Type, off uintptr) bool {
	op, wire := op1, 1
	switch t.Kind() {
	case reflect.Bool:
		op = opBool
	case reflect.Int8, reflect.Uint8:
	case reflect.Int16, reflect.Uint16:
		op, wire = op2, 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		op, wire = op4, 4
	case reflect.Int64, reflect.Uint64, reflect.Float64:
		op, wire = op8, 8
	case reflect.Int:
		op, wire = opInt, 8
	case reflect.Uint:
		op, wire = opUint, 8
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			if !l.add(t.Elem(), off+uintptr(i)*t.Elem().Size()) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if skipped(f) {
				continue
			}
			if !f.IsExported() || !l.add(f.Type, off+f.Offset) {
				return false
			}
		}
		return true
	default:
		return false
	}
	l.leaves = append(l.leaves, leaf{off: off, op: op, wire: wire, typ: t})
	l.wire += wire
	return true
}

// flatPlan handles a flat value in place.
func flatPlan(l *layout) plan {
	return plan{
		size: func(reflect.Value) int { return l.wire },
		enc: func(buf []byte, v reflect.Value) ([]byte, error) {
			n := len(buf)
			buf = grow(buf, l.wire)
			encodeFlat(buf[n:], v.Addr().UnsafePointer(), 1, l)
			return buf, nil
		},
		dec: func(r *reader, v reflect.Value) error {
			b, err := r.take(l.wire)
			if err != nil {
				return err
			}
			return decodeFlat(b, v.Addr().UnsafePointer(), 1, l)
		},
	}
}

// flatSlicePlan handles a slice of flat elements: the length prefix,
// then the elements back to back.
func flatSlicePlan(l *layout) plan {
	return plan{
		size: func(v reflect.Value) int { return 4 + v.Len()*l.wire },
		enc: func(buf []byte, v reflect.Value) ([]byte, error) {
			n := v.Len()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
			start := len(buf)
			buf = grow(buf, n*l.wire)
			encodeFlat(buf[start:], v.UnsafePointer(), n, l)
			return buf, nil
		},
		dec: func(r *reader, v reflect.Value) error {
			if err := r.sliceLen(v, max(l.wire, 1)); err != nil {
				return err
			}
			b, err := r.take(v.Len() * l.wire)
			if err != nil {
				return err
			}
			return decodeFlat(b, v.UnsafePointer(), v.Len(), l)
		},
	}
}

// grow extends buf by n bytes, reallocating at most once.
func grow(buf []byte, n int) []byte {
	return slices.Grow(buf, n)[:len(buf)+n]
}

// encodeFlat writes n consecutive values of layout l, starting at base,
// into dst, which holds exactly n*l.wire bytes.
func encodeFlat(dst []byte, base unsafe.Pointer, n int, l *layout) {
	switch {
	case l.whole:
		copy(dst, unsafe.Slice((*byte)(base), n*l.wire))
	case l.runs != nil:
		for i := 0; i < n; i++ {
			elem, out := unsafe.Add(base, uintptr(i)*l.stride), dst[i*l.wire:]
			for _, r := range l.runs {
				copy(out[r.wire:r.wire+r.n], unsafe.Slice((*byte)(unsafe.Add(elem, r.mem)), r.n))
			}
		}
	default:
		encodeLeaves(dst, base, n, l)
	}
}

// decodeFlat reads n consecutive values of layout l from src, which
// holds exactly n*l.wire bytes, into memory starting at base. On the run
// path a value's bool bytes are checked before the value is written.
func decodeFlat(src []byte, base unsafe.Pointer, n int, l *layout) error {
	switch {
	case l.runs == nil:
		return decodeLeaves(src, base, n, l)
	case l.whole:
		for i := 0; i < n && len(l.bools) > 0; i++ {
			if err := checkBools(src[i*l.wire:], l.bools); err != nil {
				return err
			}
		}
		copy(unsafe.Slice((*byte)(base), n*l.wire), src)
		return nil
	}
	for i := 0; i < n; i++ {
		elem, in := unsafe.Add(base, uintptr(i)*l.stride), src[i*l.wire:]
		if err := checkBools(in, l.bools); err != nil {
			return err
		}
		for _, r := range l.runs {
			copy(unsafe.Slice((*byte)(unsafe.Add(elem, r.mem)), r.n), in[r.wire:r.wire+r.n])
		}
	}
	return nil
}

// checkBools rejects a value whose bool bytes, at the given offsets into
// its encoding in, are not 0 or 1.
func checkBools(in []byte, bools []int) error {
	for _, off := range bools {
		if b := in[off]; b > 1 {
			return fmt.Errorf("snap: invalid bool byte 0x%02x", b)
		}
	}
	return nil
}

// encodeLeaves is encodeFlat one scalar at a time.
func encodeLeaves(dst []byte, base unsafe.Pointer, n int, l *layout) {
	for i := 0; i < n; i++ {
		elem := unsafe.Add(base, uintptr(i)*l.stride)
		for _, f := range l.leaves {
			p := unsafe.Add(elem, f.off)
			switch f.op {
			case opBool:
				dst[0] = 0
				if *(*bool)(p) {
					dst[0] = 1
				}
				dst = dst[1:]
			case op1:
				dst[0] = *(*uint8)(p)
				dst = dst[1:]
			case op2:
				binary.LittleEndian.PutUint16(dst, *(*uint16)(p))
				dst = dst[2:]
			case op4:
				binary.LittleEndian.PutUint32(dst, *(*uint32)(p))
				dst = dst[4:]
			case op8:
				binary.LittleEndian.PutUint64(dst, *(*uint64)(p))
				dst = dst[8:]
			case opInt:
				binary.LittleEndian.PutUint64(dst, uint64(*(*int)(p)))
				dst = dst[8:]
			case opUint:
				binary.LittleEndian.PutUint64(dst, uint64(*(*uint)(p)))
				dst = dst[8:]
			}
		}
	}
}

// decodeLeaves is decodeFlat one scalar at a time.
func decodeLeaves(src []byte, base unsafe.Pointer, n int, l *layout) error {
	for i := 0; i < n; i++ {
		elem := unsafe.Add(base, uintptr(i)*l.stride)
		for _, f := range l.leaves {
			p := unsafe.Add(elem, f.off)
			switch f.op {
			case opBool:
				switch src[0] {
				case 0:
					*(*bool)(p) = false
				case 1:
					*(*bool)(p) = true
				default:
					return fmt.Errorf("snap: invalid bool byte 0x%02x", src[0])
				}
				src = src[1:]
			case op1:
				*(*uint8)(p) = src[0]
				src = src[1:]
			case op2:
				*(*uint16)(p) = binary.LittleEndian.Uint16(src)
				src = src[2:]
			case op4:
				*(*uint32)(p) = binary.LittleEndian.Uint32(src)
				src = src[4:]
			case op8:
				*(*uint64)(p) = binary.LittleEndian.Uint64(src)
				src = src[8:]
			case opInt:
				x := int64(binary.LittleEndian.Uint64(src))
				if x < math.MinInt || x > math.MaxInt {
					return fmt.Errorf("snap: value %d overflows %s", x, f.typ)
				}
				*(*int)(p) = int(x)
				src = src[8:]
			case opUint:
				x := binary.LittleEndian.Uint64(src)
				if x > math.MaxUint {
					return fmt.Errorf("snap: value %d overflows %s", x, f.typ)
				}
				*(*uint)(p) = uint(x)
				src = src[8:]
			}
		}
	}
	return nil
}
