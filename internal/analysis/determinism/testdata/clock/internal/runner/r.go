// Package runner exercises the clock rule's taint tracking in the sweep
// orchestration role: wall-clock values are legal for progress output
// but must not reach a deterministic sink unwaived.
package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"clocktaint.example/internal/snap"
	"clocktaint.example/internal/stats"
)

// RunMeta mirrors the store's cache metadata record.
//
//ubs:artifact
type RunMeta struct {
	Seconds float64
	Disk    bool
}

// Results mirrors the results.json schema root.
//
//ubs:artifact
type Results struct {
	WallSeconds float64
	Runs        []RunMeta
}

// Checkpoint mirrors a checkpoint image root.
//
//ubs:state
type Checkpoint struct {
	Cycles uint64
}

// progressOnly reads the clock but only feeds a progress line: flow-
// sensitivity means no waiver is needed.
func progressOnly(w io.Writer, done, total int) {
	start := time.Now()
	fmt.Fprintf(w, "[%d/%d] elapsed %s\n", done, total, time.Since(start))
}

// storeTainted lets the wall clock reach the artifact schema on every
// path: composite literal, field store, and arithmetic laundering.
func storeTainted(rf *Results) {
	t0 := time.Now()
	sec := time.Since(t0).Seconds()
	meta := RunMeta{Seconds: sec}   // want `wall-clock value reaches a deterministic sink \(//ubs:artifact results schema\)`
	rf.Runs = append(rf.Runs, meta) // want `wall-clock value reaches a deterministic sink \(//ubs:artifact results schema\)`
	rf.WallSeconds = sec + 1        // want `wall-clock value reaches a deterministic sink \(//ubs:artifact results schema\)`
}

// branchLaundered taints on only one branch; the join keeps it tainted.
func branchLaundered(rf *Results, cached bool) {
	sec := 0.0
	if !cached {
		sec = time.Since(time.Now()).Seconds()
	}
	rf.WallSeconds = sec // want `wall-clock value reaches a deterministic sink \(//ubs:artifact results schema\)`
}

// waivedSink is the audited survivor: the justification makes the
// exemption self-documenting.
func waivedSink(rf *Results) {
	t0 := time.Now()
	//ubs:wallclock wall_seconds is scrubbed under omit_timings; audited sweep metadata
	rf.WallSeconds = time.Since(t0).Seconds()
}

// bareWaiver lacks a justification, which the analyzer calls out.
func bareWaiver(rf *Results) {
	t0 := time.Now()
	//ubs:wallclock
	rf.WallSeconds = time.Since(t0).Seconds() // want `the //ubs:wallclock waiver needs a justification`
}

// untaintedStore shows strong updates: reassigning the local with a
// clean value clears its taint before the sink.
func untaintedStore(rf *Results) {
	sec := time.Since(time.Now()).Seconds()
	sec = 0
	rf.WallSeconds = sec
}

// pollute writes host time into the checkpoint image.
func pollute(ck *Checkpoint) {
	now := time.Now()
	ck.Cycles = uint64(now.UnixNano()) // want `wall-clock value reaches a deterministic sink \(//ubs:state checkpoint image\)`
}

// deadline derives a value from time.Until and stores it into the image.
func deadline(ck *Checkpoint, t time.Time) {
	ck.Cycles = uint64(time.Until(t)) // want `wall-clock value reaches a deterministic sink \(//ubs:state checkpoint image\)`
}

// cycleCounter is the legal pattern: simulation time from the cycle
// counter, not the host clock.
func cycleCounter(ck *Checkpoint, cycles uint64) {
	ck.Cycles = cycles
}

// codecInput hands a tainted value to the deterministic codec.
func codecInput() []byte {
	t0 := time.Now()
	return snap.Encode(t0.UnixNano()) // want `wall-clock value reaches a deterministic sink \(snap codec input\)`
}

// statsSink stores a tainted value into a published counter.
func statsSink(st *stats.Stats) {
	st.Seconds = time.Since(time.Now()).Seconds() // want `wall-clock value reaches a deterministic sink \(internal/stats published counters\)`
}

// globalRNG stores a global-source draw into the image: the ban reports
// the draw itself, so no taint source is needed for it.
func globalRNG(ck *Checkpoint) {
	ck.Cycles = uint64(rand.Int63()) // want `global math/rand source`
}

// stampJSON marshals host time straight into artifact bytes.
func stampJSON() ([]byte, error) {
	return json.Marshal(time.Now()) // want `wall-clock value reaches a deterministic sink \(JSON artifact bytes\)`
}
