package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// testParams keeps the golden matrix fast while still crossing warmup,
// several checkpoints, and the storage-efficiency sampler.
func testParams() sim.Params {
	p := sim.DefaultParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	p.SampleInterval = 2_000
	return p
}

// resultJSON canonicalizes a result for byte-level comparison.
func resultJSON(t *testing.T, res sim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return data
}

// runUninterrupted is the reference: one machine, one Advance to the
// full measure target.
func runUninterrupted(t *testing.T, p sim.Params, w workloadspec.Workload, design string) sim.Result {
	t.Helper()
	d, err := sim.ParseDesign(design)
	if err != nil {
		t.Fatalf("ParseDesign(%q): %v", design, err)
	}
	res, err := workloadspec.Run(context.Background(), p, w, d.Name, d.Factory)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	return res
}

// goldenWorkloads are the three workload kinds the byte-identity
// contract is pinned over: synthetic preset, declarative mix, and an
// ingested ChampSim trace.
func goldenWorkloads(t *testing.T) map[string]workloadspec.Workload {
	t.Helper()
	out := map[string]workloadspec.Workload{}
	for name, spec := range map[string]string{
		"preset":   "server_001",
		"mix":      "mix:" + filepath.Join("..", "..", "examples", "specs", "clients.yaml"),
		"champsim": "champsim:" + filepath.Join("..", "trace", "testdata", "tiny.champsim"),
	} {
		w, err := workloadspec.ParseWorkload(spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", spec, err)
		}
		out[name] = w
	}
	return out
}

// goldenDesigns covers all four design kinds plus the stateful-policy
// (ghrp) and admission-filter (acic) variants of the conventional kind.
var goldenDesigns = []string{"conv:32", "ghrp", "acic", "ubs", "smallblock16", "distill"}

// TestRoundTripByteIdentity is the tentpole contract: snapshot at N,
// restore into a fresh machine (fresh process is exercised by the CI
// smoke step), run to completion, byte-identical final stats — across
// all design kinds × workload kinds.
func TestRoundTripByteIdentity(t *testing.T) {
	p := testParams()
	for wname, w := range goldenWorkloads(t) {
		for _, design := range goldenDesigns {
			t.Run(wname+"/"+design, func(t *testing.T) {
				want := resultJSON(t, runUninterrupted(t, p, w, design))

				d, err := sim.ParseDesign(design)
				if err != nil {
					t.Fatal(err)
				}
				meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: design, Params: p}
				ckPath := filepath.Join(t.TempDir(), "run.ubsc")

				// Chunked run writing checkpoints every 7k instructions
				// (deliberately not a divisor of the measure target).
				src, err := w.NewSource()
				if err != nil {
					t.Fatal(err)
				}
				m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
				if err != nil {
					t.Fatal(err)
				}
				wrote := 0
				res, err := Complete(m, meta, 7_000, func(data []byte) error {
					wrote++
					return WriteFileAtomic(ckPath, data)
				})
				if c, ok := src.(interface{ Close() error }); ok {
					defer c.Close()
				}
				if err != nil {
					t.Fatalf("chunked run: %v", err)
				}
				if wrote == 0 {
					t.Fatal("no checkpoints written")
				}
				if got := resultJSON(t, res); !bytes.Equal(got, want) {
					t.Errorf("chunked run diverged:\n got:  %s\n want: %s", got, want)
				}

				// Resume from the last mid-run checkpoint in a fresh
				// machine and run to completion.
				r, err := Resume(context.Background(), ckPath, ResumeOptions{})
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				defer r.Close()
				if r.Meta.Instructions == 0 || r.Meta.Instructions >= p.Measure {
					t.Fatalf("checkpoint position %d not mid-measure", r.Meta.Instructions)
				}
				res2, err := Complete(r.Machine, r.Meta, 0, nil)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if got := resultJSON(t, res2); !bytes.Equal(got, want) {
					t.Errorf("resumed run diverged:\n got:  %s\n want: %s", got, want)
				}
			})
		}
	}
}

// TestResnapshotIdentity pins that Restore installs everything Snapshot
// captured: the machine a checkpoint resumes into, snapshotted again and
// encoded with the same Meta, reproduces the checkpoint file byte for
// byte. A field Restore forgets shows up here even when the resumed run
// happens to overwrite it before reading it, which the stat-identity
// tests cannot see.
func TestResnapshotIdentity(t *testing.T) {
	p := testParams()
	for wname, w := range goldenWorkloads(t) {
		for _, design := range goldenDesigns {
			t.Run(wname+"/"+design, func(t *testing.T) {
				d, err := sim.ParseDesign(design)
				if err != nil {
					t.Fatal(err)
				}
				src, err := w.NewSource()
				if err != nil {
					t.Fatal(err)
				}
				if c, ok := src.(interface{ Close() error }); ok {
					defer c.Close()
				}
				m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Warmup(); err != nil {
					t.Fatal(err)
				}
				if err := m.Advance(7_000); err != nil {
					t.Fatal(err)
				}
				ckPath := filepath.Join(t.TempDir(), "run.ubsc")
				meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: design, Params: p}
				if err := Write(ckPath, meta, m); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(ckPath)
				if err != nil {
					t.Fatal(err)
				}

				r, err := Resume(context.Background(), ckPath, ResumeOptions{})
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				defer r.Close()
				var st sim.MachineState
				if err := r.Machine.Snapshot(&st); err != nil {
					t.Fatal(err)
				}
				got, err := Encode(r.Meta, &st)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("re-snapshot of the resumed machine differs from the checkpoint (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestCancelWritesCheckpointAndResumes pins the crash-safety path: a
// cancelled run persists its position, and resuming it still converges
// to the uninterrupted result, byte for byte.
func TestCancelWritesCheckpointAndResumes(t *testing.T) {
	p := testParams()
	p.HeartbeatEvery = 500 // prompt cancellation windows
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, runUninterrupted(t, p, w, "ubs"))

	d, err := sim.ParseDesign("ubs")
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "ubs", Params: p}
	ckPath := filepath.Join(t.TempDir(), "run.ubsc")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(ctx, p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from inside the first checkpoint write: the next heartbeat
	// window aborts the run, and Complete must persist a final
	// checkpoint on the way out.
	saves := 0
	_, err = Complete(m, meta, 4_000, func(data []byte) error {
		saves++
		cancel()
		return WriteFileAtomic(ckPath, data)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if saves < 2 {
		t.Fatalf("cancellation did not write a final checkpoint (saves=%d)", saves)
	}

	r, err := Resume(context.Background(), ckPath, ResumeOptions{})
	if err != nil {
		t.Fatalf("Resume after cancel: %v", err)
	}
	defer r.Close()
	res, err := Complete(r.Machine, r.Meta, 0, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := resultJSON(t, res); !bytes.Equal(got, want) {
		t.Errorf("cancel/resume diverged:\n got:  %s\n want: %s", got, want)
	}
}

// writeGoodCheckpoint runs halfway and returns a valid checkpoint file.
func writeGoodCheckpoint(t *testing.T) (string, []byte) {
	t.Helper()
	p := testParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(p.Measure / 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "good.ubsc")
	meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "conv:32", Params: p}
	if err := Write(path, meta, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCorruptedCheckpointRejected pins the failure modes: bit flips,
// truncation, wrong magic, and wrong version must all fail loudly.
func TestCorruptedCheckpointRejected(t *testing.T) {
	path, data := writeGoodCheckpoint(t)
	if _, _, err := Read(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			bad := f(append([]byte(nil), data...))
			p := filepath.Join(t.TempDir(), "bad.ubsc")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Read(p); err == nil {
				t.Fatalf("%s not rejected", name)
			}
		})
	}
	mutate("bitflip-header", func(b []byte) []byte { b[7] ^= 0x01; return b })
	mutate("bitflip-state", func(b []byte) []byte { b[len(b)/2] ^= 0x80; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-9] })
	mutate("empty", func([]byte) []byte { return nil })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return reseal(b) })
	mutate("bad-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], Version+1)
		return reseal(b)
	})
	// Version 1 carried warmup stat baselines in MachineState; its
	// layout no longer decodes.
	mutate("version-1", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], 1)
		return reseal(b)
	})
	// Version 2 checkpointed the core's completion heap and occupancy
	// counters; its layout no longer decodes either.
	mutate("version-2", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], 2)
		return reseal(b)
	})
	// Version 3 carried no walker image and resumed generator workloads
	// by replay; its layout no longer decodes either.
	mutate("version-3", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], 3)
		return reseal(b)
	})
	// Version 4 carried the state of replacement policies no design can
	// select (plru bits, drrip selectors, per-block RRPVs).
	mutate("version-4", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[4:], 4)
		return reseal(b)
	})
}

// TestOtherModelEpochRejected pins that a checkpoint records the model
// epoch it was simulated under and that Read refuses one from another
// epoch, even when it is otherwise intact.
func TestOtherModelEpochRejected(t *testing.T) {
	_, data := writeGoodCheckpoint(t)
	meta, _, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ModelEpoch != sim.ModelEpoch {
		t.Fatalf("checkpoint records model epoch %d, want %d", meta.ModelEpoch, sim.ModelEpoch)
	}
	for _, epoch := range []int{0, sim.ModelEpoch + 1} {
		bad := editMeta(t, data, func(m map[string]any) { m["model_epoch"] = epoch })
		p := filepath.Join(t.TempDir(), "stale.ubsc")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Read(p)
		if err == nil || !strings.Contains(err.Error(), "model epoch") {
			t.Errorf("epoch %d: want a model epoch error, got %v", epoch, err)
		}
	}
}

// editMeta rewrites the JSON metadata block of an encoded checkpoint
// through edit, re-frames it, and reseals the checksum.
func editMeta(t *testing.T, data []byte, edit func(map[string]any)) []byte {
	t.Helper()
	off := len(magic) + 2
	metaLen := int(binary.LittleEndian.Uint32(data[off:]))
	var m map[string]any
	if err := json.Unmarshal(data[off+4:off+4+metaLen], &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	mj, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:off]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(mj)))
	out = append(out, mj...)
	out = append(out, data[off+4+metaLen:]...)
	return reseal(out)
}

// reseal recomputes the trailing CRC so structural mutations are tested
// on their own merits, not masked by the checksum.
func reseal(b []byte) []byte {
	payload := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(payload))
	return b
}
