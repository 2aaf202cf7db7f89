package exp

import (
	"fmt"
	"strings"

	"ubscache/internal/cache"
	"ubscache/internal/stats"
	"ubscache/internal/workload"
)

// functionalInstrs returns the instruction budget for the functional
// (timing-free) cache passes behind Figures 1 and 4.
func (r *Runner) functionalInstrs() uint64 {
	p := r.Opts.params()
	return p.Warmup + p.Measure
}

// fig1Hist resolves fig1Pass per workload through the aux layer so
// sweeps can capture and schedule the passes in parallel.
func (r *Runner) fig1Hist(wcfg workload.Config) (*stats.Histogram, error) {
	return r.histPass("fig1", wcfg, 16, func() (*stats.Histogram, error) {
		r.Opts.progress("  fig1 pass: %s", wcfg.Name)
		return fig1Pass(wcfg, r.functionalInstrs())
	})
}

// histPass resolves a byte-usage histogram pass with bins 0..max through
// the aux layer, rejecting decoded bytes of another width.
func (r *Runner) histPass(kind string, wcfg workload.Config, max int, pass func() (*stats.Histogram, error)) (*stats.Histogram, error) {
	h := stats.NewHistogram(max)
	if err := r.auxRun(kind, wcfg, h, func() (interface{}, error) { return pass() }); err != nil {
		return nil, err
	}
	if len(h.Counts) != max+1 {
		return nil, fmt.Errorf("exp: %s pass on %s: %d histogram bins, want %d", kind, wcfg.Name, len(h.Counts), max+1)
	}
	return h, nil
}

// fig4Result bundles one workload's fig4Pass outcome.
type fig4Result struct {
	Fracs     [4]float64
	Evictions int
}

// fig4Res resolves fig4Pass per workload through the aux layer.
func (r *Runner) fig4Res(wcfg workload.Config) (fig4Result, error) {
	var fr fig4Result
	err := r.auxRun("fig4", wcfg, &fr, func() (interface{}, error) {
		r.Opts.progress("  fig4 pass: %s", wcfg.Name)
		fracs, ev, err := fig4Pass(wcfg, r.functionalInstrs())
		return fig4Result{Fracs: fracs, Evictions: ev}, err
	})
	return fr, err
}

// fig1Pass streams a workload's demand fetches through a 32KB baseline
// L1-I and histograms the number of accessed 4B units per block at
// eviction time — the Figure 1 measurement.
func fig1Pass(wcfg workload.Config, instrs uint64) (*stats.Histogram, error) {
	w, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	hist := stats.NewHistogram(16)
	c := cache.MustNew(cache.Config{
		Name: "fig1", Sets: 64, Ways: 8, BlockSize: 64,
		OnEvict: func(_ int, b *cache.Block) { hist.Add(b.AccessedUnits()) },
	})
	for i := uint64(0); i < instrs; i++ {
		in, _ := w.Next()
		ctx := cache.AccessContext{PC: in.PC, Cycle: i}
		if set, way, hit := c.Probe(in.PC); !c.AccessAt(set, way, hit, in.PC, int(in.Size), ctx) {
			way, _ = c.FillAt(set, in.PC, ctx)
			c.MarkAccessedAt(set, way, in.PC, int(in.Size))
		}
	}
	return hist, nil
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: cumulative bytes accessed per 64B block before eviction",
		Paper: "~60% of blocks use <=32B; ~11% (google) to 30% use <=8B; ~12% use all 64B; ~20% use >=60B",
		Run: func(r *Runner) (string, error) {
			tb := stats.NewTable("family", "<=8B", "<=16B", "<=32B", ">=60B", "=64B", "blocks")
			var b strings.Builder
			for _, fam := range allFamilies {
				merged := stats.NewHistogram(16)
				for _, wcfg := range r.workloads(fam) {
					h, err := r.fig1Hist(wcfg)
					if err != nil {
						return "", err
					}
					merged.Merge(h)
				}
				cdf := merged.CDF()
				tb.Row(string(fam),
					stats.Pct(merged.FractionAtMost(2)),
					stats.Pct(merged.FractionAtMost(4)),
					stats.Pct(merged.FractionAtMost(8)),
					stats.Pct(1-merged.FractionAtMost(14)),
					stats.Pct(float64(merged.Counts[16])/float64(merged.Total)),
					fmt.Sprintf("%d", merged.Total))
				// Full CDF series (the figure's curve).
				fmt.Fprintf(&b, "%s CDF by bytes:", fam)
				for u := 1; u <= 16; u++ {
					fmt.Fprintf(&b, " %d:%.3f", u*4, cdf[u])
				}
				fmt.Fprintln(&b)
			}
			return tb.String() + "\n" + b.String(), nil
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: storage-efficiency distribution of a 32KB conventional L1-I",
		Paper: "averages: google 60%, client 49%, server 41%, SPEC 52%; min as low as 24%, max ~80%",
		Run: func(r *Runner) (string, error) {
			return r.efficiencyStudy(designConv32())
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: storage efficiency of UBS",
		Paper: "averages: google 72%, client 75%, server 73%, SPEC 74%; min 60%, max 87%",
		Run: func(r *Runner) (string, error) {
			return r.efficiencyStudy(designUBS())
		},
	})
}

// efficiencyStudy renders the Figure 2/7 violin summaries for one design.
func (r *Runner) efficiencyStudy(d Design) (string, error) {
	tb := stats.NewTable("family", "mean", "min", "p25", "median", "p75", "max", "samples")
	for _, fam := range allFamilies {
		var all []float64
		for _, wcfg := range r.workloads(fam) {
			res, err := r.run(wcfg, d)
			if err != nil {
				return "", err
			}
			all = append(all, res.EffSamples...)
		}
		s := stats.Summarise(all)
		tb.Row(string(fam), stats.Pct(s.Mean), stats.Pct(s.Min), stats.Pct(s.P25),
			stats.Pct(s.Median), stats.Pct(s.P75), stats.Pct(s.Max),
			fmt.Sprintf("%d", s.N))
	}
	return fmt.Sprintf("design: %s\n%s", d.Name, tb.String()), nil
}

// fig4Pass measures, for each evicted block, what fraction of its
// lifetime-accessed bytes had already been touched by the time of the
// next 1..4 misses in its set (Figure 4).
func fig4Pass(wcfg workload.Config, instrs uint64) (fracs [4]float64, evictions int, err error) {
	w, err := workload.New(wcfg)
	if err != nil {
		return fracs, 0, err
	}
	const sets, ways = 64, 8
	type snap struct {
		masks [4]uint64
		n     int
	}
	snaps := make([][]snap, sets)
	for s := range snaps {
		snaps[s] = make([]snap, ways)
	}
	var sumFrac [4]float64
	var blocks float64
	// Snapshots are tracked by (set, way); evictions are detected through
	// Fill's victim return rather than the eviction hook, because the slot
	// identity matters here.
	c := cache.MustNew(cache.Config{
		Name: "fig4", Sets: sets, Ways: ways, BlockSize: 64,
	})
	popcount := func(m uint64) int {
		n := 0
		for m != 0 {
			m &= m - 1
			n++
		}
		return n
	}
	finish := func(set, way int, final uint64) {
		if final == 0 {
			return
		}
		sp := &snaps[set][way]
		total := float64(popcount(final))
		for k := 0; k < 4; k++ {
			m := sp.masks[k]
			if k >= sp.n {
				// Fewer than k+1 misses during its lifetime: everything
				// that would ever be accessed was already in place.
				m = final
			}
			sumFrac[k] += float64(popcount(m&final)) / total
		}
		blocks++
		*sp = snap{}
	}
	for i := uint64(0); i < instrs; i++ {
		in, _ := w.Next()
		ctx := cache.AccessContext{PC: in.PC, Cycle: i}
		set, way, hit := c.Probe(in.PC)
		if c.AccessAt(set, way, hit, in.PC, int(in.Size), ctx) {
			continue
		}
		// Miss in this set: snapshot every resident block that has not yet
		// collected 4 snapshots.
		c.ForEach(func(s, way int, b *cache.Block) {
			if s != set {
				return
			}
			sp := &snaps[s][way]
			if sp.n < 4 {
				sp.masks[sp.n] = b.Accessed
				sp.n++
			}
		})
		// Fill; if a valid block is evicted, finalise its statistics.
		way, victim := c.FillAt(set, in.PC, ctx)
		if victim.Valid {
			finish(set, way, victim.Accessed)
		} else {
			snaps[set][way] = snap{}
		}
		c.MarkAccessedAt(set, way, in.PC, int(in.Size))
	}
	if blocks == 0 {
		// Workloads whose code fits the cache see no evictions at short
		// run lengths; the caller skips them.
		return fracs, 0, nil
	}
	for k := 0; k < 4; k++ {
		fracs[k] = sumFrac[k] / blocks
	}
	return fracs, int(blocks), nil
}

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: fraction of lifetime-accessed bytes touched before the next 1..4 same-set misses",
		Paper: "next-1-miss capture: google 94.6%, client 90.4%, server 93.3%, SPEC 89.8%; more misses add little",
		Run: func(r *Runner) (string, error) {
			tb := stats.NewTable("family", "1 miss", "2 misses", "3 misses", "4 misses")
			for _, fam := range allFamilies {
				var sum [4]float64
				n := 0
				for _, wcfg := range r.workloads(fam) {
					fr, err := r.fig4Res(wcfg)
					if err != nil {
						return "", err
					}
					if fr.Evictions == 0 {
						continue
					}
					for k := range sum {
						sum[k] += fr.Fracs[k]
					}
					n++
				}
				if n == 0 {
					tb.Row(string(fam), "n/a", "n/a", "n/a", "n/a")
					continue
				}
				tb.Row(string(fam),
					stats.Pct(sum[0]/float64(n)), stats.Pct(sum[1]/float64(n)),
					stats.Pct(sum[2]/float64(n)), stats.Pct(sum[3]/float64(n)))
			}
			return tb.String(), nil
		},
	})
}
