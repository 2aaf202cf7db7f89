// Storagestudy reproduces the paper's motivation analysis (§III) for one
// workload: how many bytes of each 64B cache block are actually accessed
// before eviction, and how the storage efficiency compares between the
// conventional baseline and UBS (a per-workload Figure 1 + Figure 2/7).
//
//	go run ./examples/storagestudy -workload google_001
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"ubscache"
)

func main() {
	name := flag.String("workload", "server_001", "workload to analyse")
	flag.Parse()

	w, err := ubscache.ParseWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}

	// Run the same workload on the baseline and on UBS; the periodic
	// storage-efficiency samples are the per-workload slice of the paper's
	// Figure 2 / Figure 7 violins (the full-fleet version is
	// `ubsweep -exp fig2` / `-exp fig7`).
	opts := ubscache.Quick()
	base, err := ubscache.SimulateWorkload(ubscache.Conventional(32), w, opts)
	if err != nil {
		log.Fatal(err)
	}
	ubs, err := ubscache.SimulateWorkload(ubscache.UBS(), w, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s — storage-efficiency distributions (sampled every 100K cycles)\n\n", *name)
	printViolin("conv-32KB", base.EffSamples)
	printViolin("UBS", ubs.EffSamples)

	fmt.Printf("\nL1-I MPKI: conv %.1f vs UBS %.1f; UBS partial misses: %.1f%% of misses\n",
		base.MPKI(), ubs.MPKI(), 100*ubs.ICache.PartialMissFraction())
	fmt.Printf("paper (§VI-B): conventional efficiency 41-60%% by family; UBS 72-75%%\n")
}

// printViolin renders a quantile summary plus a coarse ASCII distribution.
func printViolin(name string, samples []float64) {
	if len(samples) == 0 {
		fmt.Printf("%-10s (no samples — raise -measure)\n", name)
		return
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	fmt.Printf("%-10s min %5.1f%%  p25 %5.1f%%  median %5.1f%%  p75 %5.1f%%  max %5.1f%%\n",
		name, 100*s[0], 100*q(0.25), 100*q(0.5), 100*q(0.75), 100*s[len(s)-1])
	// 10-bin histogram from 0..100%.
	bins := make([]int, 10)
	for _, v := range samples {
		b := int(v * 10)
		if b > 9 {
			b = 9
		}
		bins[b]++
	}
	max := 1
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	for i, b := range bins {
		bar := strings.Repeat("#", b*40/max)
		fmt.Printf("  %3d-%3d%% |%s\n", i*10, i*10+10, bar)
	}
}
