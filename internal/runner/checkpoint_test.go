package runner

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"ubscache/internal/checkpoint"
	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

func ckTestParams() sim.Params {
	p := sim.DefaultParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	p.SampleInterval = 2_000
	return p
}

// TestStoreCheckpointedRun pins the crash-safe sweep path end to end: a
// killed run leaves a checkpoint behind, a retrying Store resumes it
// instead of recomputing (no warmup-phase heartbeat), the final result is
// byte-identical to an uninterrupted run, and success cleans the
// checkpoint up. It covers a design whose name is not a parseable
// shorthand (conv:32 is named conv-32KB): the Store resumes with the
// design it was called with, not by re-parsing the name recorded in the
// checkpoint.
func TestStoreCheckpointedRun(t *testing.T) {
	for _, shorthand := range []string{"ubs", "conv:32"} {
		d := sim.MustDesign(shorthand)
		t.Run(d.Name, func(t *testing.T) { checkpointedRun(t, d) })
	}
}

func checkpointedRun(t *testing.T, d sim.Design) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadspec.Run(context.Background(), p, w, d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := NewStore(dir)
	s.CheckpointEvery = 4_000
	key := WorkloadKey(p, w, d.Name)

	// Simulate a crash: drive part of the run, persisting checkpoints,
	// then abandon it mid-measure.
	hb := p
	hb.HeartbeatEvery = 500
	ctx, cancel := context.WithCancel(context.Background())
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(ctx, hb, src, w.Name, d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: d.Name, Params: p}
	_, err = checkpoint.Complete(m, meta, s.CheckpointEvery, func(data []byte) error {
		cancel()
		return checkpoint.WriteFileAtomic(s.ckPath(key), data)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(s.ckPath(key)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	// The retrying Store resumes from the checkpoint, so it never passes
	// through warmup, and converges to the uninterrupted result.
	warmBeats := 0
	hp := p
	hp.HeartbeatEvery = 500
	hp.Observer = obs.FuncObserver{OnHeartbeat: func(hb *obs.Heartbeat) {
		if hb.Phase == "warmup" {
			warmBeats++
		}
	}}
	res, err := s.RunWorkloadContext(context.Background(), hp, w, d.Name, d.Factory)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if warmBeats != 0 {
		t.Errorf("retry recomputed from warmup (%d warmup heartbeats) instead of resuming", warmBeats)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed sweep point diverged:\n got:  %s\n want: %s", got, want)
	}
	if _, err := os.Stat(s.ckPath(key)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success (err=%v)", err)
	}

	// And the result was persisted to the ordinary disk cache.
	if rec, ok := s.loadDisk(key); !ok || rec.Result == nil {
		t.Error("result missing from disk cache after checkpointed run")
	}
}

// TestStoreCheckpointedFresh pins that checkpointing changes nothing
// when no checkpoint exists: same bytes as a plain run.
func TestStoreCheckpointedFresh(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("client_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadspec.Run(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)

	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	res, err := s.RunWorkloadContext(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	if string(got) != string(want) {
		t.Errorf("checkpointed fresh run diverged:\n got:  %s\n want: %s", got, want)
	}
	if _, err := os.Stat(s.ckPath(WorkloadKey(p, w, "conv:32"))); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success (err=%v)", err)
	}
}

// TestStoreCorruptCheckpointFallsBack pins that a damaged checkpoint is
// discarded and the point recomputed from scratch, not failed.
func TestStoreCorruptCheckpointFallsBack(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	key := WorkloadKey(p, w, "conv:32")
	if err := os.WriteFile(s.ckPath(key), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkloadContext(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatalf("corrupt checkpoint should fall back, got %v", err)
	}
	if res.Core.Instructions < p.Measure {
		t.Errorf("fresh fallback ran %d < %d instructions", res.Core.Instructions, p.Measure)
	}
}

// TestStoreVersion1CheckpointRecomputes pins that a checkpoint written
// under layout version 1 (which carried warmup stat baselines the
// current layout does not) is never resumed: the Store discards it and
// recomputes the point from its warmup.
func TestStoreVersion1CheckpointRecomputes(t *testing.T) { oldVersionRecomputes(t, 1) }

// TestStoreVersion2CheckpointRecomputes is the same for layout version
// 2, which carried the core's completion heap and occupancy counters.
func TestStoreVersion2CheckpointRecomputes(t *testing.T) { oldVersionRecomputes(t, 2) }

// TestStoreVersion3CheckpointRecomputes is the same for layout version
// 3, which carried no walker image.
func TestStoreVersion3CheckpointRecomputes(t *testing.T) { oldVersionRecomputes(t, 3) }

// TestStoreRejectedCheckpointRecomputes pins the fallback when a
// CRC-valid checkpoint of the current version sits under a point's key
// but does not fit the point's machine: one taken under a smaller L2.
// Decoding it in place leaves that machine unusable, so the Store must
// recompute the point on a fresh machine, to the uninterrupted bytes.
func TestStoreRejectedCheckpointRecomputes(t *testing.T) {
	other := ckTestParams()
	other.Hierarchy.L2Sets /= 2
	recomputes(t, checkpointOf(t, other), "a checkpoint of other params")
}

// oldVersionRecomputes relabels a genuine checkpoint as the given layout
// version and checks the Store recomputes the point to the
// uninterrupted bytes.
func oldVersionRecomputes(t *testing.T, version uint16) {
	// A genuine mid-measure checkpoint of this point, relabelled as
	// the old version with its checksum resealed.
	data := checkpointOf(t, ckTestParams())
	binary.LittleEndian.PutUint16(data[4:], version)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	recomputes(t, data, fmt.Sprintf("version-%d checkpoint", version))
}

// checkpointOf encodes a mid-measure checkpoint of server_001 on conv:32
// run under p.
func checkpointOf(t *testing.T, p sim.Params) []byte {
	t.Helper()
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
	m, err := sim.NewMachine(context.Background(), p, src, w.Name, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(p.Measure / 2); err != nil {
		t.Fatal(err)
	}
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "conv:32", Params: p}
	data, err := checkpoint.Encode(meta, &st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recomputes stores data as the checkpoint of server_001 on conv:32
// under ckTestParams and checks the Store recomputes that point from
// its warmup, to the uninterrupted run's bytes, and then removes the
// checkpoint.
func recomputes(t *testing.T, data []byte, what string) {
	t.Helper()
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadspec.Run(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)

	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	key := WorkloadKey(p, w, "conv:32")
	if err := os.WriteFile(s.ckPath(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Only a fresh run passes through warmup; a resumed one starts in
	// the measure phase.
	warmBeats := 0
	hp := p
	hp.HeartbeatEvery = 1_000
	hp.Observer = obs.FuncObserver{OnHeartbeat: func(hb *obs.Heartbeat) {
		if hb.Phase == "warmup" {
			warmBeats++
		}
	}}
	res, err := s.RunWorkloadContext(context.Background(), hp, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatalf("%s should fall back, got %v", what, err)
	}
	if warmBeats == 0 {
		t.Errorf("%s was resumed instead of recomputed", what)
	}
	if got, _ := json.Marshal(res); string(got) != string(want) {
		t.Errorf("recomputed point diverged:\n got:  %s\n want: %s", got, want)
	}
	if _, err := os.Stat(s.ckPath(key)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success (err=%v)", err)
	}
}
