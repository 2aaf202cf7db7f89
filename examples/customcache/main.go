// Customcache shows how to explore UBS design points through the public
// API: a custom way-size mix, an associative predictor, and the two
// ablation knobs the paper's design discussion motivates (the trailing
// fill of §IV-F and the 4-way placement window).
//
//	go run ./examples/customcache
package main

import (
	"fmt"
	"log"

	"ubscache"
)

func main() {
	w, err := ubscache.ParseWorkload("server_002")
	if err != nil {
		log.Fatal(err)
	}
	opts := ubscache.Quick()

	// Baseline for reference.
	base, err := ubscache.SimulateWorkload(ubscache.Conventional(32), w, opts)
	if err != nil {
		log.Fatal(err)
	}

	variants := []struct {
		name string
		cfg  func() ubscache.UBSConfig
	}{
		{"table-II default", func() ubscache.UBSConfig {
			return ubscache.DefaultUBSConfig()
		}},
		{"coarse 8-way mix", func() ubscache.UBSConfig {
			c := ubscache.DefaultUBSConfig()
			c.Name = "ubs-coarse"
			c.WaySizes = []int{8, 16, 24, 32, 48, 64, 64, 64}
			return c
		}},
		{"assoc-8 FIFO predictor", func() ubscache.UBSConfig {
			c := ubscache.DefaultUBSConfig()
			c.Name = "ubs-fifo-pred"
			c.PredictorSets, c.PredictorWays, c.PredictorFIFO = 8, 8, true
			return c
		}},
		{"no trailing fill", func() ubscache.UBSConfig {
			c := ubscache.DefaultUBSConfig()
			c.Name = "ubs-nofill"
			c.FillTrailing = false
			return c
		}},
		{"placement window 1", func() ubscache.UBSConfig {
			c := ubscache.DefaultUBSConfig()
			c.Name = "ubs-window1"
			c.PlacementWindow = 1
			return c
		}},
	}

	fmt.Printf("workload %s — conv-32KB IPC %.3f, MPKI %.1f\n\n", w.Name, base.IPC(), base.MPKI())
	fmt.Printf("%-24s %8s %8s %8s %9s\n", "variant", "dIPC", "MPKI", "partial", "eff")
	for _, v := range variants {
		cfg := v.cfg()
		if err := cfg.Validate(); err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		rep, err := ubscache.SimulateWorkload(ubscache.UBSCustom(cfg), w, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %+7.2f%% %8.1f %7.1f%% %8.1f%%\n",
			v.name, 100*(rep.IPC()/base.IPC()-1), rep.MPKI(),
			100*rep.ICache.PartialMissFraction(), 100*mean(rep.EffSamples))
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
