// Quickstart: simulate one server workload on the paper's baseline 32KB
// instruction cache and on the UBS cache, and compare IPC, miss rate and
// storage efficiency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ubscache"
)

func main() {
	w, err := ubscache.ParseWorkload("server_001")
	if err != nil {
		log.Fatal(err)
	}
	opts := ubscache.Quick() // 200K warmup + 800K measured instructions

	base, err := ubscache.SimulateWorkload(ubscache.Conventional(32), w, opts)
	if err != nil {
		log.Fatal(err)
	}
	ubs, err := ubscache.SimulateWorkload(ubscache.UBS(), w, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s (%d instructions measured)\n\n", w.Name, base.Core.Instructions)
	fmt.Printf("%-22s %10s %10s\n", "", "conv-32KB", "UBS")
	fmt.Printf("%-22s %10.3f %10.3f\n", "IPC", base.IPC(), ubs.IPC())
	fmt.Printf("%-22s %10.1f %10.1f\n", "L1-I MPKI", base.MPKI(), ubs.MPKI())
	fmt.Printf("%-22s %9.1f%% %9.1f%%\n", "icache stall cycles",
		100*base.Core.FrontEndStallFraction(), 100*ubs.Core.FrontEndStallFraction())
	fmt.Printf("%-22s %9.1f%% %9.1f%%\n", "storage efficiency",
		100*mean(base.EffSamples), 100*mean(ubs.EffSamples))
	fmt.Printf("\nUBS speedup over the 32KB baseline: %+.2f%%\n",
		100*(ubs.IPC()/base.IPC()-1))
	if ubs.UBS != nil {
		fmt.Printf("UBS internals: %d predictor hits, %d way hits, %d sub-block placements\n",
			ubs.UBS.PredictorHits, ubs.UBS.WayHits, ubs.UBS.Placements)
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
