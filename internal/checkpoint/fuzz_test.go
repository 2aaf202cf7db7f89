package checkpoint

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
// measured instructions past warmup, encode the checkpoint, parse it,
// decode its state block in place into a fresh machine over a fresh
// source, as Resume does, and run to the end. The result must be byte-identical to the uninterrupted run's. The
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
		_, state, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		r := machine()
		if err := r.RestoreEncoded(state); err != nil {
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

// tinyParams shrinks L2 and L3 and drops the L1-D, so checkpoints stay
// small enough to fuzz and fresh machines cheap to build. The short
// heartbeat period bounds how long a restored machine that cannot make
// progress runs before its context deadline stops it.
func tinyParams() sim.Params {
	p := testParams()
	p.Warmup, p.Measure = 1_000, 4_000
	p.Hierarchy.L2Sets, p.Hierarchy.L2Ways = 4, 2
	p.Hierarchy.L3Sets, p.Hierarchy.L3Ways = 4, 2
	p.DataCache = false
	p.HeartbeatEvery = 10_000
	return p
}

// fuzzBases are the workloads whose tiny checkpoints FuzzDecode edits.
// spec_001's program builds in ~2 ms against server_001's ~20 ms, which
// keeps the restore path's exec rate up.
var fuzzBases = []string{"server_001", "spec_001"}

// fuzzDesigns are the designs of FuzzDecode's bases, one per frontend
// decoder: UBS with and without the congruence extensions, the ACIC and
// GHRP variants of the conventional kind, small-block and Distill.
var fuzzDesigns = []string{"ubs", congruenceUBS, "acic", "ghrp", "smallblock16", "distill"}

// FuzzDecode feeds corrupted checkpoints to the reader and every state
// block it accepts to RestoreEncoded, neither of which may panic. A
// fuzzed input is an edit of a tiny checkpoint of one of fuzzBases on
// one of fuzzDesigns, both picked by the base index: patch overwrites
// the bytes at off, the file loses its last cut bytes, and the checksum
// is resealed, so the edit reaches the framing, the metadata and the
// state decoder behind the CRC. A state block Parse accepts is decoded
// in place, as Resume decodes it, into a fresh machine of the base's own
// workload, design and parameters (the fuzzed metadata is not trusted
// to size one), which then runs 2,000 more instructions. Decode reads
// the same file too, and the patch alone is read as a whole file. Edits
// keep the fuzzed inputs small, which keeps the fuzzer's minimization
// of each new input fast.
func FuzzDecode(f *testing.F) {
	p := tinyParams()
	type base struct {
		workload, design string
		data             []byte
	}
	var bases []base
	for _, w := range fuzzBases {
		for _, d := range fuzzDesigns {
			bases = append(bases, base{w, d, encodeAt(f, p, w, d, 1_000)})
		}
	}
	for i, b := range bases {
		f.Add(uint8(i), uint32(0), []byte(nil), uint32(0))
		f.Add(uint8(i), uint32(len(magic)+2), []byte{0xff, 0xff}, uint32(0))
		f.Add(uint8(i), uint32(len(b.data)/2), []byte{2, 0xff, 0xff, 0xff, 0x7f}, uint32(0))
		f.Add(uint8(i), uint32(0), []byte(nil), uint32(9))
	}
	f.Fuzz(func(t *testing.T, bi uint8, off uint32, patch []byte, cut uint32) {
		// Only a panic fails; rejecting the input is the usual outcome.
		_, _, _ = Decode(patch)
		b := bases[int(bi)%len(bases)]
		data := append([]byte(nil), b.data...)
		copy(data[int(off%uint32(len(data))):], patch)
		data = data[:len(data)-int(cut%uint32(len(data)-3))]
		data = reseal(data)
		_, _, _ = Decode(data)
		_, state, err := Parse(data)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		m, _ := freshMachine(t, ctx, p, b.workload, b.design)
		if m.RestoreEncoded(state) == nil {
			_ = m.Advance(2_000)
		}
	})
}
