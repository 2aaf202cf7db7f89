package checkpoint

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// resumeWorkloads are the sources FuzzResumeAtN draws from, with the
// restore path each must take: presets are bare walkers, restored from
// their image; a mix carries no image and is replayed.
var resumeWorkloads = []struct {
	spec  string
	image bool
}{
	{"server_001", true},
	{"spec_001", true},
	{"mix:" + filepath.Join("..", "..", "examples", "specs", "clients.yaml"), false},
}

var resumeDesigns = []string{"ubs", "conv:32"}

// FuzzResumeAtN pins resume at any position: snapshot at a fuzzed N
// measured instructions past warmup, encode and decode the image,
// restore it into a fresh machine over a fresh source, and run to the
// end. The result must be byte-identical to the uninterrupted run's. The
// seed corpus covers both restore paths on two design kinds.
func FuzzResumeAtN(f *testing.F) {
	for wi := range resumeWorkloads {
		for di := range resumeDesigns {
			f.Add(uint8(wi), uint8(di), uint32(0))
			f.Add(uint8(wi), uint8(di), uint32(7_919*(wi+1)+di))
		}
	}
	p := testParams()
	var (
		mu   sync.Mutex
		refs = map[[2]int][]byte{}
	)
	f.Fuzz(func(t *testing.T, wi, di uint8, n uint32) {
		wl := resumeWorkloads[int(wi)%len(resumeWorkloads)]
		design := resumeDesigns[int(di)%len(resumeDesigns)]
		at := uint64(n) % (p.Measure + 1)
		w, err := workloadspec.ParseWorkload(wl.spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sim.ParseDesign(design)
		if err != nil {
			t.Fatal(err)
		}
		key := [2]int{int(wi) % len(resumeWorkloads), int(di) % len(resumeDesigns)}
		mu.Lock()
		want, ok := refs[key]
		mu.Unlock()
		if !ok {
			want = resultJSON(t, runUninterrupted(t, p, w, design))
			mu.Lock()
			refs[key] = want
			mu.Unlock()
		}

		machine := func() *sim.Machine {
			src, err := w.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := src.(io.Closer); ok {
				t.Cleanup(func() { c.Close() })
			}
			m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := machine()
		if err := m.Advance(at); err != nil {
			t.Fatal(err)
		}
		var st sim.MachineState
		if err := m.Snapshot(&st); err != nil {
			t.Fatal(err)
		}
		if (st.Walker != nil) != wl.image {
			t.Fatalf("%s: snapshot carries a walker image: %v, want %v", wl.spec, st.Walker != nil, wl.image)
		}
		meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: design, Params: p}
		data, err := Encode(meta, &st)
		if err != nil {
			t.Fatal(err)
		}
		_, back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		r := machine()
		if err := r.Restore(back); err != nil {
			t.Fatalf("restore at %d: %v", at, err)
		}
		res, err := Complete(r, meta, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("%s on %s resumed at %d diverged:\n got:  %s\n want: %s", wl.spec, design, at, got, want)
		}
	})
}
