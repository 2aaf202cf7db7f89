package snap

import "reflect"

// Hooks for flat_test.go, an external test: it reaches the simulator's
// state types, whose packages import snap.

// FlatTypes returns every flat type reachable from root through
// structs, arrays, slices and pointers, root included, each once.
func FlatTypes(root reflect.Type) []reflect.Type {
	var out []reflect.Type
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		if _, ok := layoutOf(t); ok {
			out = append(out, t)
			return
		}
		switch t.Kind() {
		case reflect.Array, reflect.Slice, reflect.Pointer:
			walk(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); !skipped(f) && f.IsExported() {
					walk(f.Type)
				}
			}
		}
	}
	walk(root)
	return out
}

// UsesRuns reports whether t, a flat type, takes the run path on this
// host.
func UsesRuns(t reflect.Type) bool {
	l, _ := layoutOf(t)
	return l.runs != nil
}

// EncodePaths encodes s, an addressable slice of a flat type, on the run
// path and on the leaf path.
func EncodePaths(s reflect.Value) (runs, leaves []byte) {
	l, _ := layoutOf(s.Type().Elem())
	n := s.Len()
	runs, leaves = make([]byte, n*l.wire), make([]byte, n*l.wire)
	encodeFlat(runs, s.UnsafePointer(), n, l)
	encodeFlat(leaves, s.UnsafePointer(), n, leafPath(l))
	return runs, leaves
}

// DecodePaths decodes data into two new slices of type st on the run
// path and on the leaf path, each with its error.
func DecodePaths(st reflect.Type, data []byte) (runs, leaves reflect.Value, runsErr, leavesErr error) {
	l, _ := layoutOf(st.Elem())
	n := len(data) / l.wire
	runs, leaves = reflect.MakeSlice(st, n, n), reflect.MakeSlice(st, n, n)
	runsErr = decodeFlat(data, runs.UnsafePointer(), n, l)
	leavesErr = decodeFlat(data, leaves.UnsafePointer(), n, leafPath(l))
	return runs, leaves, runsErr, leavesErr
}

// leafPath returns l without its runs, which takes the leaf-by-leaf path
// that big-endian hosts and 4-byte ints take.
func leafPath(l *layout) *layout {
	c := *l
	c.runs, c.whole = nil, false
	return &c
}

// BoolOffsets returns the wire offsets of a flat type's bool leaves.
func BoolOffsets(t reflect.Type) []int {
	l, _ := layoutOf(t)
	return l.bools
}
