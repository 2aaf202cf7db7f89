// Package checkpoint persists sim.Machine state to disk and resumes it
// in a fresh process. A checkpoint file is fully self-describing: a
// versioned header, a JSON metadata block naming the workload spec,
// design, and simulation parameters the state was captured under, the
// snap-encoded MachineState, and a CRC-32 over everything before it.
// Writes go through an atomic rename so a crash mid-write never leaves
// a truncated file where a valid checkpoint used to be, and Read
// rejects any file whose checksum, magic, version, model epoch, or
// framing does not check out — a corrupted or stale checkpoint fails
// loudly instead of resuming a subtly wrong machine.
package checkpoint

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/snap"
	"ubscache/internal/trace"
	"ubscache/internal/workloadspec"
)

// magic identifies a ubscache checkpoint file.
const magic = "UBSC"

// Version identifies the serialized layout. The MachineState layout IS
// the format — snap encodes struct fields in declaration order, and each
// layer keeps its state in the State type the image stores — so Version
// must be bumped whenever a layer's State type or the snap layout
// changes. Readers reject other versions; there is no migration:
// checkpoints are restart accelerators, not archives.
const Version = 5

// Meta names what a checkpoint is a checkpoint OF. Everything needed to
// rebuild an identical fresh machine travels in the file: the workload
// spec (resolved through the workloadspec registry), the design string
// (resolved through sim.ParseDesign), and the full simulation
// parameters. Observer wiring is process-local and deliberately absent
// (sim.Params excludes it from JSON). ModelEpoch is the sim.ModelEpoch
// the state was simulated under; Encode stamps it, and Decode rejects a
// file from another epoch, whose state the current model would continue
// differently from the run that produced it.
type Meta struct {
	ModelEpoch   int               `json:"model_epoch"`
	Workload     workloadspec.Spec `json:"workload"`
	WorkloadName string            `json:"workload_name"`
	Design       string            `json:"design"`
	Params       sim.Params        `json:"params"`
	// Instructions records the measured-instruction position at capture
	// time (informational; the authoritative cursor is inside the state).
	Instructions uint64 `json:"instructions"`
}

// Encode serializes a metadata block and machine state into the
// checkpoint wire format.
func Encode(meta Meta, st *sim.MachineState) ([]byte, error) {
	meta.ModelEpoch = sim.ModelEpoch
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding meta: %w", err)
	}
	// The state is encoded straight into the file buffer, sized once.
	buf := make([]byte, 0, len(magic)+2+4+len(mj)+4+snap.Size(st)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = append(buf, 0, 0, 0, 0) // state length, filled in below
	start := len(buf)
	if buf, err = snap.Append(buf, st); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding state: %w", err)
	}
	binary.LittleEndian.PutUint32(buf[start-4:], uint32(len(buf)-start))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses and verifies the checkpoint wire format.
func Decode(data []byte) (Meta, *sim.MachineState, error) {
	var meta Meta
	if len(data) < len(magic)+2+4+4+4 {
		return meta, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return meta, nil, fmt.Errorf("checkpoint: checksum mismatch (corrupted or truncated file)")
	}
	if string(payload[:len(magic)]) != magic {
		return meta, nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint file)")
	}
	off := len(magic)
	if v := binary.LittleEndian.Uint16(payload[off:]); v != Version {
		return meta, nil, fmt.Errorf("checkpoint: version %d, this build reads version %d", v, Version)
	}
	off += 2
	metaLen := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if metaLen < 0 || off+metaLen+4 > len(payload) {
		return meta, nil, fmt.Errorf("checkpoint: meta block overruns file")
	}
	if err := json.Unmarshal(payload[off:off+metaLen], &meta); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: decoding meta: %w", err)
	}
	if meta.ModelEpoch != sim.ModelEpoch {
		return meta, nil, fmt.Errorf("checkpoint: model epoch %d, this build simulates epoch %d", meta.ModelEpoch, sim.ModelEpoch)
	}
	off += metaLen
	stateLen := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if stateLen < 0 || off+stateLen != len(payload) {
		return meta, nil, fmt.Errorf("checkpoint: state block overruns file")
	}
	st := &sim.MachineState{}
	if err := snap.Unmarshal(payload[off:off+stateLen], st); err != nil {
		return meta, nil, fmt.Errorf("checkpoint: decoding state: %w", err)
	}
	return meta, st, nil
}

// Write snapshots m and atomically persists it to path (temp file +
// fsync + rename, so readers only ever see complete checkpoints).
func Write(path string, meta Meta, m *sim.Machine) error {
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		return err
	}
	meta.Instructions = m.Core().Stats().Instructions
	data, err := Encode(meta, &st)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// Read loads and verifies the checkpoint at path.
func Read(path string) (Meta, *sim.MachineState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, err
	}
	meta, st, err := Decode(data)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return meta, st, nil
}

// ResumeOptions re-injects the process-local wiring a checkpoint cannot
// carry.
type ResumeOptions struct {
	// Observer receives BeginRun/heartbeats for the resumed run.
	Observer obs.Observer
	// HeartbeatEvery overrides the heartbeat period (0 keeps the period
	// recorded in the checkpoint's params).
	HeartbeatEvery uint64
}

// Resumed is a machine rebuilt from a checkpoint, ready for Advance.
type Resumed struct {
	Machine *sim.Machine
	Meta    Meta
	// Source is the freshly opened trace source feeding the machine;
	// Close releases it (file-backed workloads hold an open reader).
	Source trace.Source
}

// Close releases the resumed source if it holds resources.
func (r *Resumed) Close() error {
	if c, ok := r.Source.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Resume rebuilds a runnable machine from the checkpoint at path: it
// re-resolves the recorded workload and design, opens a fresh source,
// restores it from the recorded walker image or, without one,
// fast-forwards it to the recorded replay cursor, and restores every
// layer's state. The returned machine continues with Advance and ends
// with Finish exactly as an uninterrupted run would.
func Resume(ctx context.Context, path string, opts ResumeOptions) (*Resumed, error) {
	meta, st, err := Read(path)
	if err != nil {
		return nil, err
	}
	w, err := workloadspec.ResolveWorkload(meta.Workload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	d, err := sim.ParseDesign(meta.Design)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	p := meta.Params
	p.Observer = opts.Observer
	if opts.HeartbeatEvery > 0 {
		p.HeartbeatEvery = opts.HeartbeatEvery
	}
	src, err := w.NewSource()
	if err != nil {
		return nil, err
	}
	r := &Resumed{Meta: meta, Source: src}
	m, err := sim.NewMachine(ctx, p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		r.Close()
		return nil, err
	}
	if err := m.Restore(st); err != nil {
		r.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.Machine = m
	return r, nil
}

// Complete drives m from its current position to the end of the
// measured region, writing a checkpoint through save every `every`
// measured instructions (0 disables checkpointing; save receives the
// encoded file bytes). Checkpoint boundaries are an absolute
// instruction grid, so the final Advance targets exactly
// meta.Params.Measure — the same target an uninterrupted
// Advance(Measure) uses — which is what keeps chunked, resumed, and
// uninterrupted runs byte-identical. On cancellation the machine
// unwinds at a heartbeat boundary in a consistent state, and Complete
// writes one final checkpoint before returning the error, so an
// interrupted run resumes from where it actually stopped.
func Complete(m *sim.Machine, meta Meta, every uint64, save func(data []byte) error) (sim.Result, error) {
	if err := m.Warmup(); err != nil {
		return sim.Result{}, err
	}
	measure := meta.Params.Measure
	var st sim.MachineState
	writeCk := func() error {
		if save == nil {
			return nil
		}
		if err := m.Snapshot(&st); err != nil {
			return err
		}
		meta.Instructions = m.Core().Stats().Instructions
		data, err := Encode(meta, &st)
		if err != nil {
			return err
		}
		return save(data)
	}
	for {
		cur := m.Core().Stats().Instructions
		if cur >= measure {
			break
		}
		next := measure
		if every > 0 {
			if g := (cur/every + 1) * every; g < next {
				next = g
			}
		}
		if err := m.Advance(next - cur); err != nil {
			if every > 0 && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				if werr := writeCk(); werr != nil {
					return sim.Result{}, errors.Join(err, werr)
				}
			}
			return sim.Result{}, err
		}
		if every > 0 && m.Core().Stats().Instructions < measure {
			if err := writeCk(); err != nil {
				return sim.Result{}, err
			}
		}
	}
	return m.Finish(), nil
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so concurrent readers and crashes observe either
// the old complete file or the new complete file — never a torn write.
// The temp name is unique per call, so concurrent writers of one path
// never share a staging file: the last rename wins. Missing parent
// directories are created; the file is published with mode 0644, and a
// failure removes the staging file and leaves path untouched.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
