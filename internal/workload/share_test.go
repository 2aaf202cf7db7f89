package workload

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"ubscache/internal/trace"
)

// TestNewSharesProgram checks that New reuses the program of an equal
// config, and builds afresh for another one.
func TestNewSharesProgram(t *testing.T) {
	cfg := presetConfig(t, "spec_001")
	w1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w1.prog != w2.prog {
		t.Fatal("two New calls with one config built two programs")
	}
	other := cfg
	other.Seed++
	w3, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if w3.prog == w1.prog {
		t.Fatal("New with a different config returned the shared program")
	}
}

// TestSharedStreams checks that walkers over a shared program emit what
// a walker over a program of its own does, before and after one's state
// moves to another by Snapshot and RestoreInPlace: on a server, a SPEC and a
// variable-length (x86) preset.
func TestSharedStreams(t *testing.T) {
	const n = 200_000
	for _, name := range []string{"server_001", "spec_001", "x86-server_001"} {
		t.Run(name, func(t *testing.T) {
			cfg := presetConfig(t, name)
			p, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewWalker(p)
			w1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if w1.prog != w2.prog || w1.prog == p {
				t.Fatal("New did not share one program apart from Build's")
			}
			for i := 0; i < n/2; i++ {
				want, _ := ref.Next()
				if got, _ := w1.Next(); got != want {
					t.Fatalf("instruction %d: shared walker emitted %+v, want %+v", i, got, want)
				}
			}
			var st State
			w1.Snapshot(&st)
			if err := restoreImage(w2, &st); err != nil {
				t.Fatal(err)
			}
			for i := n / 2; i < n; i++ {
				want, _ := ref.Next()
				if got, _ := w1.Next(); got != want {
					t.Fatalf("instruction %d: snapshotted walker emitted %+v, want %+v", i, got, want)
				}
				if got, _ := w2.Next(); got != want {
					t.Fatalf("instruction %d: restored walker emitted %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestNewConcurrent opens walkers over two configs from several
// goroutines at once, so that builds race with hits and with each
// other's replacement of the shared entry. Each walker must emit its own
// config's stream. Run it under -race.
func TestNewConcurrent(t *testing.T) {
	const (
		goroutines = 8
		opens      = 6
		n          = 2_000
	)
	a := presetConfig(t, "spec_001")
	b := presetConfig(t, "spec_002")
	streams := make(map[string][]trace.Instr)
	for _, cfg := range []Config{a, b} {
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(p)
		for i := 0; i < n; i++ {
			in, _ := w.Next()
			streams[cfg.Name] = append(streams[cfg.Name], in)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < opens; k++ {
				cfg := a
				if (g+k)%2 == 1 {
					cfg = b
				}
				w, err := New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				for i, want := range streams[cfg.Name] {
					if in, _ := w.Next(); in != want {
						t.Errorf("%s: instruction %d differs from its own program's", cfg.Name, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBlockPointerFree keeps Block free of pointers, so a program's
// block arena is not scanned by the garbage collector, and at most 80
// bytes.
func TestBlockPointerFree(t *testing.T) {
	if typ := reflect.TypeOf(Block{}); hasPointers(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
	if size := unsafe.Sizeof(Block{}); size > 80 {
		t.Errorf("Block is %d bytes, want <= 80", size)
	}
}

// hasPointers reports whether a value of type typ holds a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestNewAllocGate checks that New of the last config allocates only
// the walker: itself and its stack. The program, and the generator
// register the walker copies from it, are shared.
func TestNewAllocGate(t *testing.T) {
	cfg := presetConfig(t, "server_001")
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("New(server_001) on a shared program makes %.0f allocations, want <= 2", allocs)
	}
}
