// Serversweep reproduces the paper's headline comparison on a set of
// server workloads: UBS against conventional caches of 32KB and 64KB,
// reporting per-workload speedups, front-end stall coverage, and the
// geometric-mean summary (a compact Figure 8 + Figure 10).
//
//	go run ./examples/serversweep            # 4 workloads, quick runs
//	go run ./examples/serversweep -n 8 -long # more workloads, longer runs
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"ubscache"
)

func main() {
	n := flag.Int("n", 4, "number of server workloads")
	long := flag.Bool("long", false, "use the full harness run lengths")
	flag.Parse()

	opts := ubscache.Quick()
	if *long {
		opts = ubscache.DefaultOptions()
	}
	designs := []ubscache.Design{
		ubscache.Conventional(32),
		ubscache.UBS(),
		ubscache.Conventional(64),
	}

	names := ubscache.WorkloadNames(ubscache.FamilyServer)
	if *n < len(names) {
		names = names[:*n]
	}

	fmt.Printf("%-12s %11s %11s %14s %14s\n",
		"workload", "ubs dIPC", "64KB dIPC", "ubs coverage", "64KB coverage")
	var ubsRatios, c64Ratios []float64
	for _, name := range names {
		w, err := ubscache.ParseWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		var reps []ubscache.Report
		for _, d := range designs {
			rep, err := ubscache.SimulateWorkload(d, w, opts)
			if err != nil {
				log.Fatal(err)
			}
			reps = append(reps, rep)
		}
		base, ubs, c64 := reps[0], reps[1], reps[2]
		ru := ubs.IPC() / base.IPC()
		r64 := c64.IPC() / base.IPC()
		ubsRatios = append(ubsRatios, ru)
		c64Ratios = append(c64Ratios, r64)
		fmt.Printf("%-12s %+10.2f%% %+10.2f%% %13.1f%% %13.1f%%\n",
			name, 100*(ru-1), 100*(r64-1),
			100*coverage(base, ubs), 100*coverage(base, c64))
	}
	fmt.Printf("\ngeomean speedup over conv-32KB: UBS %+.2f%%, conv-64KB %+.2f%%\n",
		100*(geomean(ubsRatios)-1), 100*(geomean(c64Ratios)-1))
	fmt.Println("(paper, full-length IPC-1 traces: UBS +5.6%, 64KB +6.3%)")
}

func coverage(base, other ubscache.Report) float64 {
	b := base.StallCycles()
	if b == 0 {
		return 0
	}
	return 1 - float64(other.StallCycles())/float64(b)
}

func geomean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
