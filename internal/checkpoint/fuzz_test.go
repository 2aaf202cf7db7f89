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

// fuzzBases are the workloads whose tiny ubs checkpoints FuzzDecode
// edits. spec_001's program builds in ~2 ms against server_001's ~20 ms,
// which keeps the restore path's exec rate up.
var fuzzBases = []string{"server_001", "spec_001"}

// FuzzDecode feeds corrupted checkpoints to the reader and every image
// it accepts to Restore and to RestoreEncoded, none of which may panic.
// A fuzzed input is an edit of a tiny ubs checkpoint of one of
// fuzzBases: patch overwrites the bytes at off, the file loses its last
// cut bytes, and the checksum is resealed, so the edit reaches the
// framing, the metadata and the state decoder behind the CRC. A decoded
// image is restored into a fresh machine of the base's own workload,
// design and parameters (the fuzzed metadata is not trusted to size
// one), which then runs 2,000 more instructions; so is every state block
// Parse accepts, decoded in place as Resume decodes it. The patch alone
// is also read as a whole file. Edits keep the fuzzed inputs small,
// which keeps the fuzzer's minimization of each new input fast.
func FuzzDecode(f *testing.F) {
	p := tinyParams()
	bases := make([][]byte, len(fuzzBases))
	for i, w := range fuzzBases {
		bases[i] = encodeAt(f, p, w, "ubs", 1_000)
	}
	for i := range bases {
		f.Add(uint8(i), uint32(0), []byte(nil), uint32(0))
		f.Add(uint8(i), uint32(len(magic)+2), []byte{0xff, 0xff}, uint32(0))
		f.Add(uint8(i), uint32(len(bases[i])/2), []byte{2, 0xff, 0xff, 0xff, 0x7f}, uint32(0))
		f.Add(uint8(i), uint32(0), []byte(nil), uint32(9))
	}
	f.Fuzz(func(t *testing.T, bi uint8, off uint32, patch []byte, cut uint32) {
		// Only a panic fails; rejecting the input is the usual outcome.
		_, _, _ = Decode(patch)
		b := int(bi) % len(bases)
		data := append([]byte(nil), bases[b]...)
		copy(data[int(off%uint32(len(data))):], patch)
		data = data[:len(data)-int(cut%uint32(len(data)-3))]
		data = reseal(data)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		// Resume's path: the parsed state block decoded in place.
		if _, state, err := Parse(data); err == nil {
			m, _ := freshMachine(t, ctx, p, fuzzBases[b], "ubs")
			if m.RestoreEncoded(state) == nil {
				_ = m.Advance(2_000)
			}
		}
		_, st, err := Decode(data)
		if err != nil {
			return
		}
		m, _ := freshMachine(t, ctx, p, fuzzBases[b], "ubs")
		if m.Restore(st) == nil {
			_ = m.Advance(2_000)
		}
	})
}
