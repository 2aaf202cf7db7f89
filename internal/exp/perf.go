package exp

import (
	"fmt"
	"strings"

	"ubscache/internal/icache"
	"ubscache/internal/sim"
	"ubscache/internal/stats"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// speedups collects per-family geomean IPC ratios of each design over the
// baseline design.
func (r *Runner) speedups(base Design, designs []Design, families []workload.Family) (*stats.Table, error) {
	header := []string{"family"}
	for _, d := range designs {
		header = append(header, d.Name)
	}
	tb := stats.NewTable(header...)
	for _, fam := range families {
		row := []interface{}{string(fam)}
		ratios := make(map[string][]float64)
		for _, wcfg := range r.workloads(fam) {
			baseRes, err := r.run(wcfg, base)
			if err != nil {
				return nil, err
			}
			for _, d := range designs {
				res, err := r.run(wcfg, d)
				if err != nil {
					return nil, err
				}
				ratios[d.Name] = append(ratios[d.Name], res.IPC()/baseRes.IPC())
			}
		}
		for _, d := range designs {
			row = append(row, stats.Speedup(stats.Geomean(ratios[d.Name])))
		}
		tb.Row(row...)
	}
	return tb, nil
}

// workloadSpeedups collects per-workload IPC ratios of each design over
// the baseline design — the workload-spec analogue of speedups, with one
// row per resolved workload instead of per preset family.
func (r *Runner) workloadSpeedups(base Design, designs []Design, workloads []workloadspec.Workload) (*stats.Table, error) {
	header := []string{"workload", "base IPC"}
	for _, d := range designs {
		header = append(header, d.Name)
	}
	tb := stats.NewTable(header...)
	for _, w := range workloads {
		baseRes, err := r.runWorkload(w, base)
		if err != nil {
			return nil, err
		}
		row := []interface{}{w.Name, fmt.Sprintf("%.3f", baseRes.IPC())}
		for _, d := range designs {
			res, err := r.runWorkload(w, d)
			if err != nil {
				return nil, err
			}
			row = append(row, stats.Speedup(res.IPC()/baseRes.IPC()))
		}
		tb.Row(row...)
	}
	return tb, nil
}

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: front-end stall cycles covered by UBS and 64KB over the 32KB baseline",
		Paper: "UBS covers 5.3% (client), 16.5% (server), 4.8% (SPEC); 64KB slightly higher on average",
		Run: func(r *Runner) (string, error) {
			tb := stats.NewTable("workload", "ubs coverage", "conv-64KB coverage")
			famTb := stats.NewTable("family", "ubs coverage", "conv-64KB coverage")
			base, u64, uubs := designConv32(), designConv64(), designUBS()
			for _, fam := range perfFamilies {
				var covU, cov64 []float64
				for _, wcfg := range r.workloads(fam) {
					b, err := r.run(wcfg, base)
					if err != nil {
						return "", err
					}
					ru, err := r.run(wcfg, uubs)
					if err != nil {
						return "", err
					}
					r64, err := r.run(wcfg, u64)
					if err != nil {
						return "", err
					}
					cu := coverage(b.StallCycles(), ru.StallCycles())
					c64 := coverage(b.StallCycles(), r64.StallCycles())
					covU = append(covU, cu)
					cov64 = append(cov64, c64)
					tb.Row(wcfg.Name, stats.Pct(cu), stats.Pct(c64))
				}
				famTb.Row(string(fam), stats.Pct(stats.Mean(covU)), stats.Pct(stats.Mean(cov64)))
			}
			return famTb.String() + "\n" + tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Figure 9: distribution of UBS partial misses",
		Paper: "partial misses are 23% (client), 18.2% (server), 26.6% (SPEC) of all misses; dominated by missing sub-blocks and overruns; underruns rare",
		Run: func(r *Runner) (string, error) {
			tb := stats.NewTable("family", "partial/all", "missing-sub-block", "overrun", "underrun")
			d := designUBS()
			for _, fam := range perfFamilies {
				var part, miss, over, under, all float64
				for _, wcfg := range r.workloads(fam) {
					res, err := r.run(wcfg, d)
					if err != nil {
						return "", err
					}
					bk := res.ICache.ByKind
					miss += float64(bk[icache.MissingSubBlock])
					over += float64(bk[icache.Overrun])
					under += float64(bk[icache.Underrun])
					all += float64(res.ICache.Misses)
				}
				part = miss + over + under
				if all == 0 {
					tb.Row(string(fam), "n/a", "-", "-", "-")
					continue
				}
				div := part
				if div == 0 {
					div = 1
				}
				tb.Row(string(fam), stats.Pct(part/all),
					stats.Pct(miss/div), stats.Pct(over/div), stats.Pct(under/div))
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: performance of UBS and 64KB over the 32KB baseline",
		Paper: "server geomean: UBS +5.6%, 64KB +6.3% (UBS delivers ~89% of doubling the cache); client/SPEC small",
		Run: func(r *Runner) (string, error) {
			tb, err := r.speedups(designConv32(), []Design{designUBS(), designConv64()}, perfFamilies)
			if err != nil {
				return "", err
			}
			// Per-workload detail.
			det := stats.NewTable("workload", "ubs", "conv-64KB", "base IPC", "base L1I MPKI")
			base, u64, uubs := designConv32(), designConv64(), designUBS()
			for _, fam := range perfFamilies {
				for _, wcfg := range r.workloads(fam) {
					b, _ := r.run(wcfg, base)
					ru, _ := r.run(wcfg, uubs)
					r64, _ := r.run(wcfg, u64)
					det.Row(wcfg.Name,
						stats.Speedup(ru.IPC()/b.IPC()),
						stats.Speedup(r64.IPC()/b.IPC()),
						fmt.Sprintf("%.3f", b.IPC()),
						fmt.Sprintf("%.1f", b.MPKI()))
				}
			}
			return tb.String() + "\n" + det.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: UBS vs conventional at different sizes (over 16KB conventional)",
		Paper: "20KB UBS outperforms 32KB conv on server; for equal budgets UBS always wins (16/32/64/128KB)",
		Run: func(r *Runner) (string, error) {
			designs := []Design{
				sim.MustDesign("conv:32"),
				sim.MustDesign("conv:64"),
				sim.MustDesign("conv:128"),
				sim.MustDesign("conv:192"),
				sim.MustDesign("ubs:16"),
				sim.MustDesign("ubs:20"),
				sim.MustDesign("ubs:32"),
				sim.MustDesign("ubs:64"),
				sim.MustDesign("ubs:128"),
			}
			base := sim.MustDesign("conv:16")
			tb, err := r.speedups(base, designs, perfFamilies)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig12",
		Title: "Figure 12: 16B/32B-block caches vs UBS (over 64B-block 32KB conventional)",
		Paper: "UBS gives ~2x the gain of the 16B/32B designs on server; all similar on client/SPEC",
		Run: func(r *Runner) (string, error) {
			designs := []Design{
				sim.MustDesign("smallblock16"),
				sim.MustDesign("smallblock32"),
				designUBS(),
			}
			tb, err := r.speedups(designConv32(), designs, perfFamilies)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig13",
		Title: "Figure 13: UBS vs prior work (GHRP, ACIC, Line Distillation)",
		Paper: "all three improve server but less than UBS; ACIC best of the three; Distillation slightly hurts client/SPEC",
		Run: func(r *Runner) (string, error) {
			designs := []Design{
				sim.MustDesign("ghrp"),
				sim.MustDesign("acic"),
				sim.MustDesign("distill"),
				designUBS(),
			}
			tb, err := r.speedups(designConv32(), designs, perfFamilies)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig15",
		Title: "Figure 15: UBS with different predictor organisations",
		Paper: "all organisations perform similarly; 8-way LRU slightly worse; FIFO repairs it",
		Run: func(r *Runner) (string, error) {
			var designs []Design
			for _, v := range ubs.PredictorVariants {
				d, err := sim.NewUBSDesign(sim.UBSDesign{Predictor: v.Name})
				if err != nil {
					return "", err
				}
				designs = append(designs, d)
			}
			tb, err := r.speedups(designConv32(), designs, perfFamilies)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig16",
		Title: "Figure 16: sensitivity to the number and sizing of UBS ways",
		Paper: "12+ ways perform within ~0.6pp of the default 16-way (+5.65%); 10-way configs lose ~1.5-2pp; a 16-way conventional cache gains almost nothing",
		Run: func(r *Runner) (string, error) {
			var designs []Design
			for _, wc := range ubs.WayConfigs {
				d, err := sim.NewUBSDesign(sim.UBSDesign{Ways: wc.Ways, WayVariant: wc.Variant})
				if err != nil {
					return "", err
				}
				designs = append(designs, d)
			}
			// 16-way conventional at the same 32KB capacity (sets halved).
			conv16w, err := sim.NewConvDesign(sim.ConvDesign{Name: "conv-16way", Sets: 32, Ways: 16})
			if err != nil {
				return "", err
			}
			designs = append(designs, conv16w)
			tb, err := r.speedups(designConv32(), designs, perfFamilies)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})

	register(Experiment{
		ID:    "cvp",
		Title: "§VI-L: UBS on traces unseen during design (CVP-1-like)",
		Paper: "UBS beats 64KB conv: +2.6%/+1.5%/+0.29% vs +1.9%/+0.9%/+0.26% (server/fp/int) over 32KB",
		Run: func(r *Runner) (string, error) {
			tb, err := r.speedups(designConv32(), []Design{designUBS(), designConv64()},
				[]workload.Family{workload.FamilyCVPServer, workload.FamilyCVPFP, workload.FamilyCVPInt})
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})
}

// coverage returns the fraction of baseline stall cycles removed.
func coverage(base, other uint64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - float64(other)/float64(base)
}

var _ = strings.TrimSpace
