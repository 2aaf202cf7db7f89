package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ubscache/internal/checkpoint"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workloadspec"
)

// design is one of the four designs every workload compares, at its
// Table I/II parameters; key is its metric-name suffix.
type design struct{ key, shorthand string }

var designs = []design{
	{"conv", "conv:32"},
	{"smallblock", "smallblock16"},
	{"distill", "distill"},
	{"ubs", "ubs"},
}

// kindOf names the design family of a built frontend: the metric suffix
// its runs report under. The sweep's variants (conv:64, ghrp, ubs:64,
// ...) report under their family.
func kindOf(fe icache.Frontend) string {
	switch fe.(type) {
	case *icache.Conventional:
		return "conv"
	case *icache.SmallBlock:
		return "smallblock"
	case *icache.Distill:
		return "distill"
	case *ubs.Cache:
		return "ubs"
	}
	return fmt.Sprintf("%T", fe)
}

// runRec is one simulation's host-time breakdown, taken by timing the
// public sim.Machine steps from outside, and its result.
type runRec struct {
	kind                           string
	build, assemble, warm, measure time.Duration
	warmInstrs, measured           uint64
	steps                          []time.Duration
	ckWrites                       []time.Duration
	ckPause                        time.Duration // wall time of the checkpoint samples
	invariants                     error         // ubs.CheckInvariants after a ubs run
	res                            sim.Result
	layers                         *runLayers // traced runs only
}

func (r *runRec) setup() time.Duration { return r.build + r.assemble }
func (r *runRec) total() time.Duration { return r.setup() + r.warm + r.measure }
func (r *runRec) nsPerInstr() float64  { return ratio(float64(r.measure), float64(r.measured)) }

// simOpts selects what simulate measures beyond the phase times.
type simOpts struct {
	// step times the measured phase in Advance steps of this many
	// instructions (0: one step).
	step uint64
	// ckPath, when set, receives a checkpoint described by ckMeta at
	// mid-measure, written ckSamples times (at least once) to time it.
	ckPath    string
	ckMeta    checkpoint.Meta
	ckSamples int
	// traced wraps the source and the frontend; record also keeps the
	// call streams for the replays.
	traced, record bool
}

// simulate runs one simulation through the public steps of
// sim.RunSourceContext (open the source, NewMachine, Warmup, Advance,
// Finish), timing each. Steps and the checkpoint fall on an absolute
// instruction grid, as checkpoint.Complete's do, so the result is
// identical to an uninterrupted run's.
func (b *bench) simulate(ctx context.Context, p sim.Params, w workloadspec.Workload, name string, factory sim.FrontendFactory, o simOpts) (*runRec, error) {
	r := &runRec{warmInstrs: p.Warmup}
	t0 := time.Now()
	src, err := w.NewSource()
	if err != nil {
		return nil, err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	var (
		ts    *tracedSource
		tf    *tracedFrontend
		inner icache.Frontend
		rec   *streams
	)
	if o.record {
		rec = &streams{}
	}
	if o.traced {
		ts = &tracedSource{src: src, rec: rec}
		src = ts
	}
	wrap := func(h *mem.Hierarchy) (icache.Frontend, error) {
		fe, err := factory(h)
		inner = fe
		if err != nil || !o.traced {
			return fe, err
		}
		tf = &tracedFrontend{Frontend: fe, rec: rec}
		return tf, nil
	}
	t1 := time.Now()
	m, err := sim.NewMachine(ctx, p, src, w.Name, name, wrap)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if err := m.Warmup(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	r.build, r.assemble, r.warm = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	r.kind = kindOf(inner)

	mid, wrote := p.Measure/2, o.ckPath == ""
	for cur := m.Core().Stats().Instructions; cur < p.Measure; cur = m.Core().Stats().Instructions {
		next := p.Measure
		if o.step > 0 {
			next = min(next, (cur/o.step+1)*o.step)
		}
		if !wrote {
			next = min(next, max(mid, cur+1))
		}
		s := time.Now()
		if err := m.Advance(next - cur); err != nil {
			return nil, err
		}
		d := time.Since(s)
		r.measure += d
		if o.step > 0 {
			r.steps = append(r.steps, d)
		}
		if !wrote && m.Core().Stats().Instructions >= mid {
			c := time.Now()
			for i := 0; i < max(o.ckSamples, 1); i++ {
				d, err := writeCheckpoint(o.ckPath, o.ckMeta, m)
				if err != nil {
					return nil, err
				}
				r.ckWrites = append(r.ckWrites, d)
			}
			r.ckPause, wrote = time.Since(c), true
		}
	}
	res := m.Finish()
	if u, ok := inner.(*ubs.Cache); ok {
		if tf != nil {
			// Finish reads the UBS counters only off an unwrapped cache.
			st := u.UBSStats()
			res.UBS = &st
		}
		r.invariants = u.CheckInvariants()
	}
	r.res, r.measured = res, res.Core.Instructions
	if o.traced {
		r.layers = layersOf(ts, tf, b.timerNs)
		b.keep(r)
	}
	return r, nil
}

// writeCheckpoint does what checkpoint.Write does short of its fsync:
// snapshot m, encode it and write the file. The fsync's latency is the
// shared disk's, not the simulator's, and swings with other tenants'
// I/O, so it is left out. Each sample starts on a collected heap, so a
// collection owed to earlier work does not land in it.
func writeCheckpoint(path string, meta checkpoint.Meta, m *sim.Machine) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		return 0, err
	}
	meta.Instructions = m.Core().Stats().Instructions
	data, err := checkpoint.Encode(meta, &st)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// resume rebuilds the checkpointed run at path in a fresh machine the
// given number of times (at least once), timing each up to a machine
// ready to advance, on a collected heap. It runs the first to the end
// and checks its result against want, the uninterrupted run's.
func (b *bench) resume(ctx context.Context, path string, want sim.Result, samples int) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < max(samples, 1); i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := checkpoint.Resume(ctx, path, checkpoint.ResumeOptions{})
		if err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
		if i == 0 {
			got, err := checkpoint.Complete(r.Machine, r.Meta, 0, nil)
			if err != nil {
				r.Close()
				return nil, err
			}
			b.check(sameJSON(got, want), "resumed %s run on %s differs from the uninterrupted run", want.Design, want.Workload)
		}
		r.Close()
	}
	return ds, nil
}

// checkpointLayers times the checkpoint codec and the restore-by-replay
// fast-forward on the checkpoint at path, whose workload is w, and
// checks that decoding and re-encoding reproduces the file exactly.
func (b *bench) checkpointLayers(path string, w workloadspec.Workload) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	meta, st, err := checkpoint.Decode(data)
	if err != nil {
		return err
	}
	dec := time.Since(t0)
	t1 := time.Now()
	again, err := checkpoint.Encode(meta, st)
	if err != nil {
		return err
	}
	enc := time.Since(t1)
	b.check(bytes.Equal(again, data), "checkpoint decode and re-encode changed %s", path)
	src, err := w.NewSource()
	if err != nil {
		return err
	}
	t2 := time.Now()
	if err := trace.Skip(src, st.FTQ.EnqueuedTot); err != nil {
		return err
	}
	b.set("checkpoint.bytes", float64(len(data)))
	b.set("checkpoint.decode_ms", ms(dec))
	b.set("checkpoint.encode_ms", ms(enc))
	b.set("checkpoint.replay_ms", ms(time.Since(t2)))
	return nil
}

// probeSamples is how often checkpointProbe writes and resumes its
// checkpoint.
const probeSamples = 15

// checkpointProbe measures checkpoint write and resume for paper-sweep,
// whose own runs take no checkpoint: it runs preset on ubs at the
// workload's run lengths p, writes a checkpoint at mid-measure
// probeSamples times, then resumes it as often. It sets the two
// end-to-end checkpoint metrics and, traced, the checkpoint layer's.
func (b *bench) checkpointProbe(ctx context.Context, preset string, p sim.Params) error {
	w, err := workloadspec.ParseWorkload(preset)
	if err != nil {
		return err
	}
	d, err := sim.ParseDesign("ubs")
	if err != nil {
		return err
	}
	path := filepath.Join(b.dir, "probe.ubsc")
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "ubs", Params: p}
	end := b.phase("checkpoint_write_ms", "resume_ms")
	defer end()
	r, err := b.simulate(ctx, p, w, d.Name, d.Factory, simOpts{ckPath: path, ckMeta: meta, ckSamples: probeSamples})
	if err != nil {
		return err
	}
	b.check(r.invariants == nil, "ubs invariants after %s: %v", w.Name, r.invariants)
	resumes, err := b.resume(ctx, path, r.res, probeSamples)
	if err != nil {
		return err
	}
	if b.traced {
		if err := b.checkpointLayers(path, w); err != nil {
			return err
		}
	}
	b.set("checkpoint_write_ms", trimmedMean(in(time.Millisecond, r.ckWrites...)))
	b.set("resume_ms", trimmedMean(in(time.Millisecond, resumes...)))
	return nil
}

func sameJSON(a, b any) bool {
	x, err := json.Marshal(a)
	if err != nil {
		return false
	}
	y, err := json.Marshal(b)
	return err == nil && bytes.Equal(x, y)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseDesigns resolves the four compared designs.
func parseDesigns() ([]sim.Design, error) {
	out := make([]sim.Design, len(designs))
	for i, d := range designs {
		var err error
		if out[i], err = sim.ParseDesign(d.shorthand); err != nil {
			return nil, err
		}
	}
	return out, nil
}
