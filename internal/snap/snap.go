// Package snap is the deterministic binary codec behind machine
// checkpoints. It encodes a closed universe of Go values — booleans,
// fixed-width integers, floats, strings, slices, arrays, pointers to
// structs, and structs of those — into a byte stream with no framing
// ambiguity: every scalar is fixed-width little-endian, every slice and
// string is length-prefixed, and struct fields serialize in declaration
// order. Maps, channels, funcs, and interfaces are rejected so the
// encoding of a value is a pure function of that value (no iteration
// order, no wall clock, no addresses); two identical machine states
// always produce identical bytes, which is what lets checkpoint files be
// content-keyed and diffed.
//
// Fields tagged `snap:"-"` are skipped (scratch space that a restore
// rebuilds). Unexported fields are an error rather than a silent skip:
// state structs exist to be serialized, so a field the codec cannot see
// is a checkpointing bug, not a convenience.
//
// Each type is compiled once into a plan (see planOf), so tags,
// exportedness and kinds are inspected per type, not per value. Types
// whose every leaf is a fixed-width scalar are copied straight from and
// into memory by flat.go, the only file that uses unsafe. Errors stay
// lazy: a type the codec cannot encode fails only when a value of it is
// actually encoded or decoded, so a nil pointer to it or an empty slice
// of it still encodes.
package snap

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
)

// Marshal encodes v (a struct or pointer to struct, but any supported
// value works) into the deterministic binary form.
func Marshal(v any) ([]byte, error) {
	rv, err := root(v)
	if err != nil {
		return nil, err
	}
	p := planOf(rv.Type())
	return p.enc(make([]byte, 0, p.size(rv)), rv)
}

// Append appends the encoding of v to buf, exactly the bytes Marshal
// returns, and returns the extended buffer. On error buf is returned
// unextended.
func Append(buf []byte, v any) ([]byte, error) {
	rv, err := root(v)
	if err != nil {
		return buf, err
	}
	out, err := planOf(rv.Type()).enc(buf, rv)
	if err != nil {
		return buf, err
	}
	return out, nil
}

// Size returns the length of v's encoding, so a caller of Append can
// size its buffer once. It is exact for every value Marshal accepts.
func Size(v any) int {
	rv, err := root(v)
	if err != nil {
		return 0
	}
	return planOf(rv.Type()).size(rv)
}

// root returns the addressable value Marshal, Append and Size encode:
// the target of a pointer, or a copy of a value passed directly.
func root(v any) (reflect.Value, error) {
	rv := reflect.ValueOf(v)
	switch {
	case !rv.IsValid():
		return rv, fmt.Errorf("snap: cannot marshal nil")
	case rv.Kind() != reflect.Pointer:
		c := reflect.New(rv.Type()).Elem()
		c.Set(rv)
		return c, nil
	case rv.IsNil():
		return rv, fmt.Errorf("snap: cannot marshal nil pointer")
	}
	return rv.Elem(), nil
}

// Unmarshal decodes data into v, which must be a non-nil pointer to a
// value of the same type that produced the bytes. Existing slice
// capacity in *v is reused where possible. Trailing garbage and
// truncation are both errors.
func Unmarshal(data []byte, v any) error {
	d := NewDecoder(data)
	if err := d.Decode(v); err != nil {
		return err
	}
	return d.Done()
}

// A Decoder reads an encoding value by value, so a caller can decode the
// parts of one composite value straight into where it keeps them: the
// encoding of a struct is its encoded fields back to back, and a pointer
// field's is Present's flag and then, when set, its target.
type Decoder struct {
	r reader
}

// NewDecoder returns a Decoder reading data from its start.
func NewDecoder(data []byte) *Decoder { return &Decoder{r: reader{data: data}} }

// Decode decodes the next value into v, a non-nil pointer, exactly as
// Unmarshal would decode it, reusing the slice capacity *v holds.
func (d *Decoder) Decode(v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("snap: decode target must be a non-nil pointer, got %T", v)
	}
	return planOf(rv.Type().Elem()).dec(&d.r, rv.Elem())
}

// Present reads the flag that precedes a pointer's target, reporting
// whether a target follows.
func (d *Decoder) Present() (bool, error) { return d.r.present() }

// Done reports an error unless every byte has been decoded.
func (d *Decoder) Done() error {
	if d.r.off != len(d.r.data) {
		return fmt.Errorf("snap: %d trailing bytes after value", len(d.r.data)-d.r.off)
	}
	return nil
}

// A plan encodes and decodes the values of one type. The values it is
// handed are always addressable.
type plan struct {
	size func(v reflect.Value) int
	enc  func(buf []byte, v reflect.Value) ([]byte, error)
	dec  func(r *reader, v reflect.Value) error
}

var (
	plansMu sync.Mutex
	plans   = map[reflect.Type]*plan{}
)

// planOf returns t's plan, compiling it (and the plans of every type it
// reaches) on first use.
func planOf(t reflect.Type) *plan {
	plansMu.Lock()
	defer plansMu.Unlock()
	return build(t)
}

// build compiles t's plan. The plan is registered before its children
// are built, so a type that reaches itself through a pointer or slice
// terminates. The caller holds plansMu.
func build(t reflect.Type) *plan {
	if p, ok := plans[t]; ok {
		return p
	}
	p := &plan{}
	plans[t] = p
	if l, ok := layoutOf(t); ok {
		*p = flatPlan(l)
		return p
	}
	switch t.Kind() {
	case reflect.String:
		*p = stringPlan
	case reflect.Slice:
		if l, ok := layoutOf(t.Elem()); ok {
			*p = flatSlicePlan(l)
		} else {
			*p = slicePlan(build(t.Elem()))
		}
	case reflect.Array:
		*p = arrayPlan(build(t.Elem()), t.Len())
	case reflect.Pointer:
		*p = pointerPlan(build(t.Elem()))
	case reflect.Struct:
		*p = structPlan(t)
	default:
		*p = errPlan(fmt.Errorf("snap: unsupported kind %s (%s)", t.Kind(), t))
	}
	return p
}

// errPlan fails every value it is handed with err. Its size is 0, which
// is exact in the only sense that matters: encoding fails.
func errPlan(err error) plan {
	return plan{
		size: func(reflect.Value) int { return 0 },
		enc:  func([]byte, reflect.Value) ([]byte, error) { return nil, err },
		dec:  func(*reader, reflect.Value) error { return err },
	}
}

var stringPlan = plan{
	size: func(v reflect.Value) int { return 4 + v.Len() },
	enc: func(buf []byte, v reflect.Value) ([]byte, error) {
		s := v.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...), nil
	},
	dec: func(r *reader, v reflect.Value) error {
		n, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.take(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
		return nil
	},
}

// slicePlan handles slices whose elements are not flat, one element at
// a time through the element plan.
func slicePlan(elem *plan) plan {
	return plan{
		size: func(v reflect.Value) int {
			n := 4
			for i := 0; i < v.Len(); i++ {
				n += elem.size(v.Index(i))
			}
			return n
		},
		enc: func(buf []byte, v reflect.Value) ([]byte, error) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Len()))
			return encodeEach(buf, v, elem)
		},
		dec: func(r *reader, v reflect.Value) error {
			// Every element costs at least one byte.
			if err := r.sliceLen(v, 1); err != nil {
				return err
			}
			return decodeEach(r, v, elem)
		},
	}
}

// arrayPlan handles arrays whose elements are not flat.
func arrayPlan(elem *plan, n int) plan {
	return plan{
		size: func(v reflect.Value) int {
			s := 0
			for i := 0; i < n; i++ {
				s += elem.size(v.Index(i))
			}
			return s
		},
		enc: func(buf []byte, v reflect.Value) ([]byte, error) { return encodeEach(buf, v, elem) },
		dec: func(r *reader, v reflect.Value) error { return decodeEach(r, v, elem) },
	}
}

func encodeEach(buf []byte, v reflect.Value, elem *plan) ([]byte, error) {
	var err error
	for i := 0; i < v.Len(); i++ {
		if buf, err = elem.enc(buf, v.Index(i)); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func decodeEach(r *reader, v reflect.Value, elem *plan) error {
	for i := 0; i < v.Len(); i++ {
		if err := elem.dec(r, v.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

// pointerPlan writes a presence byte (0 nil, 1 present) and then the
// target.
func pointerPlan(elem *plan) plan {
	return plan{
		size: func(v reflect.Value) int {
			if v.IsNil() {
				return 1
			}
			return 1 + elem.size(v.Elem())
		},
		enc: func(buf []byte, v reflect.Value) ([]byte, error) {
			if v.IsNil() {
				return append(buf, 0), nil
			}
			return elem.enc(append(buf, 1), v.Elem())
		},
		dec: func(r *reader, v reflect.Value) error {
			present, err := r.present()
			switch {
			case err != nil:
				return err
			case !present:
				v.SetZero()
				return nil
			case v.IsNil():
				v.Set(reflect.New(v.Type().Elem()))
			}
			return elem.dec(r, v.Elem())
		},
	}
}

// structPlan handles structs that are not flat: their encoded fields in
// declaration order, each through its own plan. An unexported field gets
// a plan that fails, so the error names the first one reached.
func structPlan(t reflect.Type) plan {
	type field struct {
		index int
		plan  *plan
	}
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if skipped(f) {
			continue
		}
		p := errPlan(fmt.Errorf("snap: %s.%s is unexported; state fields must be exported (or tagged snap:\"-\")", t, f.Name))
		fp := &p
		if f.IsExported() {
			fp = build(f.Type)
		}
		fields = append(fields, field{i, fp})
	}
	return plan{
		size: func(v reflect.Value) int {
			n := 0
			for _, f := range fields {
				n += f.plan.size(v.Field(f.index))
			}
			return n
		},
		enc: func(buf []byte, v reflect.Value) ([]byte, error) {
			var err error
			for _, f := range fields {
				if buf, err = f.plan.enc(buf, v.Field(f.index)); err != nil {
					return nil, err
				}
			}
			return buf, nil
		},
		dec: func(r *reader, v reflect.Value) error {
			for _, f := range fields {
				if err := f.plan.dec(r, v.Field(f.index)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// skipped reports whether f is scratch the codec leaves alone.
func skipped(f reflect.StructField) bool { return f.Tag.Get("snap") == "-" }

type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || len(r.data)-r.off < n {
		return nil, fmt.Errorf("snap: truncated input (need %d bytes at offset %d of %d)", n, r.off, len(r.data))
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// present reads a pointer's presence flag.
func (r *reader) present() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("snap: invalid pointer flag 0x%02x", b[0])
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// sliceLen reads a slice length prefix and sizes the slice v to it,
// reusing v's capacity where it suffices. Each element costs at least
// minBytes of input, so a length the remaining input cannot hold is
// corruption, rejected before anything is allocated.
func (r *reader) sliceLen(v reflect.Value, minBytes int) error {
	n32, err := r.u32()
	if err != nil {
		return err
	}
	n := int(n32)
	if n > (len(r.data)-r.off)/minBytes {
		return fmt.Errorf("snap: slice length %d exceeds remaining input", n)
	}
	if v.Cap() >= n {
		v.SetLen(n)
	} else {
		v.Set(reflect.MakeSlice(v.Type(), n, n))
	}
	return nil
}
