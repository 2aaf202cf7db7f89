package runner

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"ubscache/internal/checkpoint"
	"ubscache/internal/sim"
	"ubscache/internal/stats"
	"ubscache/internal/workloadspec"
)

// RunRecord is one simulation's machine-readable summary — an entry of
// the results.json "runs" array (schema in DESIGN.md §4.1).
//
//ubs:artifact
type RunRecord struct {
	Key          string   `json:"key"`
	Workload     string   `json:"workload"`
	Family       string   `json:"family"`
	Design       string   `json:"design"`
	Warmup       uint64   `json:"warmup"`
	Measure      uint64   `json:"measure"`
	Cycles       uint64   `json:"cycles"`
	Instructions uint64   `json:"instructions"`
	IPC          float64  `json:"ipc"`
	L1IMPKI      float64  `json:"l1i_mpki"`
	BranchMPKI   float64  `json:"branch_mpki"`
	StallCycles  uint64   `json:"icache_stall_cycles"`
	StallFrac    float64  `json:"frontend_stall_fraction"`
	Efficiency   float64  `json:"storage_efficiency_mean"`
	Seconds      float64  `json:"seconds"`
	FromCache    bool     `json:"from_cache"`
	Experiments  []string `json:"experiments"`
}

// ExperimentRecord summarises one experiment in results.json.
//
//ubs:artifact
type ExperimentRecord struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
	// SimSeconds sums the wall-clock of this experiment's simulation
	// points (shared points are attributed to every experiment using
	// them); RenderSeconds is the table-formatting time.
	SimSeconds    float64 `json:"sim_seconds"`
	RenderSeconds float64 `json:"render_seconds"`
	// Runs lists the keys of this experiment's simulation points in
	// request order, indexing the top-level runs array.
	Runs []string `json:"runs"`
	// Rollup aggregates the experiment's simulation points: runs,
	// ipc_geomean, l1i_mpki_mean, cycles, instructions, sim_seconds.
	Rollup map[string]float64 `json:"rollup,omitempty"`
}

// ResultsFile is the results.json schema.
//
//ubs:artifact
type ResultsFile struct {
	Schema  int  `json:"schema"`
	Spec    Spec `json:"spec"`
	Workers int  `json:"workers"`
	// Interrupted marks a partial flush from a cancelled sweep: Runs holds
	// only the points that completed, and Experiments is empty.
	Interrupted bool               `json:"interrupted,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	Experiments []ExperimentRecord `json:"experiments"`
	Runs        []RunRecord        `json:"runs"`
}

// record builds a RunRecord from a completed simulation point.
func record(key string, p sim.Params, res sim.Result, meta RunMeta, experiments []string, family string) RunRecord {
	return RunRecord{
		Key:          key,
		Workload:     res.Workload,
		Family:       family,
		Design:       res.Design,
		Warmup:       p.Warmup,
		Measure:      p.Measure,
		Cycles:       res.Core.Cycles,
		Instructions: res.Core.Instructions,
		IPC:          res.IPC(),
		L1IMPKI:      res.MPKI(),
		BranchMPKI:   res.BPU.MPKI(res.Core.Instructions),
		StallCycles:  res.StallCycles(),
		StallFrac:    res.Core.FrontEndStallFraction(),
		Efficiency:   stats.Mean(res.EffSamples),
		Seconds:      meta.Seconds,
		FromCache:    meta.Disk,
		Experiments:  experiments,
	}
}

// rollup aggregates one experiment's completed simulation points into the
// per-experiment metric summary of results.json.
func rollup(keys []string, store *Store, simSec float64) map[string]float64 {
	var (
		ipcs, mpkis   []float64
		cycles, instr uint64
	)
	for _, key := range keys {
		res, ok := store.Result(key)
		if !ok {
			continue
		}
		ipcs = append(ipcs, res.IPC())
		mpkis = append(mpkis, res.MPKI())
		cycles += res.Core.Cycles
		instr += res.Core.Instructions
	}
	return map[string]float64{
		"runs":          float64(len(ipcs)),
		"ipc_geomean":   stats.Geomean(ipcs),
		"l1i_mpki_mean": stats.Mean(mpkis),
		"cycles":        float64(cycles),
		"instructions":  float64(instr),
		"sim_seconds":   simSec,
	}
}

// familyOf derives the workload family from a preset name ("server_003"
// -> "server"); names without the preset shape map to themselves.
func familyOf(name string) string {
	if i := strings.LastIndex(name, "_"); i > 0 {
		return name[:i]
	}
	return name
}

// workloadFamily is the results.json family column for a registry
// workload: the preset family for generator-backed workloads, the
// registry kind ("mix", "champsim", ...) otherwise.
func workloadFamily(w workloadspec.Workload) string {
	if _, ok := w.Config(); ok {
		return familyOf(w.Name)
	}
	return w.Spec.Kind
}

// scrubTimings zeroes every volatile field of a results file — wall
// clocks, per-run timings, and cache provenance — leaving only the
// deterministic simulated quantities. With Spec.OmitTimings this makes
// repeated runs of one spec byte-identical.
func scrubTimings(rf *ResultsFile) {
	rf.WallSeconds = 0
	for i := range rf.Experiments {
		rf.Experiments[i].SimSeconds = 0
		rf.Experiments[i].RenderSeconds = 0
		if rf.Experiments[i].Rollup != nil {
			rf.Experiments[i].Rollup["sim_seconds"] = 0
		}
	}
	for i := range rf.Runs {
		rf.Runs[i].Seconds = 0
		rf.Runs[i].FromCache = false
	}
}

// WriteResults writes the results.json artifact atomically.
func WriteResults(path string, rf *ResultsFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("runner: results: %w", err)
	}
	return checkpoint.WriteFileAtomic(path, append(data, '\n'))
}

// csvHeader matches RunRecord's JSON field order.
var csvHeader = []string{
	"key", "workload", "family", "design", "warmup", "measure",
	"cycles", "instructions", "ipc", "l1i_mpki", "branch_mpki",
	"icache_stall_cycles", "frontend_stall_fraction",
	"storage_efficiency_mean", "seconds", "from_cache",
}

// WriteCSV writes one experiment's simulation points as CSV.
func WriteCSV(path string, records []RunRecord) error {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			r.Key, r.Workload, r.Family, r.Design,
			strconv.FormatUint(r.Warmup, 10), strconv.FormatUint(r.Measure, 10),
			strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.Instructions, 10),
			strconv.FormatFloat(r.IPC, 'f', 6, 64),
			strconv.FormatFloat(r.L1IMPKI, 'f', 4, 64),
			strconv.FormatFloat(r.BranchMPKI, 'f', 4, 64),
			strconv.FormatUint(r.StallCycles, 10),
			strconv.FormatFloat(r.StallFrac, 'f', 6, 64),
			strconv.FormatFloat(r.Efficiency, 'f', 6, 64),
			strconv.FormatFloat(r.Seconds, 'f', 3, 64),
			strconv.FormatBool(r.FromCache),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, []byte(b.String()))
}
