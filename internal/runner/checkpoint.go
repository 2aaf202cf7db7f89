package runner

import (
	"context"
	"os"
	"path/filepath"

	"ubscache/internal/checkpoint"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// ckPath is the checkpoint file for a simulation point, keyed by the
// same content hash as its result cache entry: equal keys denote equal
// simulations, so a checkpoint written by one process is safe for any
// other process computing the same point to resume from.
func (s *Store) ckPath(key string) string { return filepath.Join(s.Dir, key+".ubsc") }

// runCheckpointed computes one simulation point with crash-safe
// checkpointing: a checkpoint is written every CheckpointEvery measured
// instructions (atomic rename, so a kill mid-write never corrupts the
// previous one), and an existing checkpoint for the key is resumed
// instead of recomputing from scratch. Resuming restores the state into
// a machine built from this call's workload and design, never from the
// names recorded in the file: equal keys already guarantee equal inputs,
// and a design name (conv-32KB, line-distill, ...) is not always a
// shorthand that would parse back. Any problem with the checkpoint file
// — corrupted, truncated, written by an older layout version — falls
// back to a fresh run; checkpoints are restart accelerators, not sources
// of truth. On success the checkpoint is removed (the result cache entry
// supersedes it); on error it is kept so a retried sweep resumes from
// where this attempt stopped.
func (s *Store) runCheckpointed(ctx context.Context, key string, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (sim.Result, error) {
	ckpath := s.ckPath(key)
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: design, Params: p}
	save := func(data []byte) error { return checkpoint.WriteFileAtomic(ckpath, data) }

	_, st, err := checkpoint.Read(ckpath)
	if err != nil && !os.IsNotExist(err) {
		// A checkpoint existed but could not be read; recompute from
		// scratch rather than fail the point.
		os.Remove(ckpath)
	}
	m, release, err := newMachine(ctx, p, w, design, factory)
	if err != nil {
		return sim.Result{}, err
	}
	if st != nil && m.Restore(st) != nil {
		// The image does not fit this machine: start over on a fresh one.
		release()
		os.Remove(ckpath)
		if m, release, err = newMachine(ctx, p, w, design, factory); err != nil {
			return sim.Result{}, err
		}
	}
	defer release()
	res, err := checkpoint.Complete(m, meta, s.CheckpointEvery, save)
	if err == nil {
		os.Remove(ckpath)
	}
	return res, err
}

// newMachine opens a fresh source for w and builds a machine over it;
// release closes the source if it holds resources.
func newMachine(ctx context.Context, p sim.Params, w workloadspec.Workload, design string, factory sim.FrontendFactory) (*sim.Machine, func(), error) {
	src, err := w.NewSource()
	if err != nil {
		return nil, nil, err
	}
	release := func() {
		if c, ok := src.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	m, err := sim.NewMachine(ctx, p, src, w.Name, design, factory)
	if err != nil {
		release()
		return nil, nil, err
	}
	return m, release, nil
}
