package exp

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/sim"
	"ubscache/internal/stats"
	"ubscache/internal/workload"
)

// The x86 experiment extends the paper's evaluation to the variable-length
// ISA regime of its Figure 1a: byte-granular accessed bit-vectors and
// 6-bit start_offsets (§IV-B/§IV-C). It reports storage efficiency and
// speedups of byte-granule UBS against conventional caches on x86-like
// server workloads.
func init() {
	register(Experiment{
		ID:    "x86",
		Title: "Extension: UBS on a variable-length (x86-like) ISA with byte-granular tracking",
		Paper: "§IV-B/§IV-C describe the mechanism (byte bit-vectors, 6-bit offsets); Figure 1a shows the x86 Google traces' byte-usage CDF; no performance numbers are reported for x86",
		Run: func(r *Runner) (string, error) {
			// Unit: 1 switches byte-accurate efficiency accounting on.
			ubsX86, err := sim.NewUBSDesign(sim.UBSDesign{Name: "ubs-x86", OffsetGranule: 1})
			if err != nil {
				return "", err
			}
			base, err := sim.NewConvDesign(sim.ConvDesign{Unit: 1})
			if err != nil {
				return "", err
			}
			conv64, err := sim.NewConvDesign(sim.ConvDesign{KB: 64, Unit: 1})
			if err != nil {
				return "", err
			}
			designs := []Design{ubsX86, conv64}
			fams := []workload.Family{workload.FamilyX86Server}

			tb, err := r.speedups(base, designs, fams)
			if err != nil {
				return "", err
			}
			// Efficiency comparison (byte granularity on both sides).
			eff := stats.NewTable("design", "mean efficiency", "min", "max")
			for _, d := range append([]Design{base}, designs[0]) {
				var all []float64
				for _, wcfg := range r.workloads(workload.FamilyX86Server) {
					res, err := r.run(wcfg, d)
					if err != nil {
						return "", err
					}
					all = append(all, res.EffSamples...)
				}
				s := stats.Summarise(all)
				eff.Row(d.Name, stats.Pct(s.Mean), stats.Pct(s.Min), stats.Pct(s.Max))
			}
			// Per-block byte-usage CDF (the Figure 1a analogue) from a
			// functional pass with byte-granular accounting.
			hist := stats.NewHistogram(64)
			for _, wcfg := range r.workloads(workload.FamilyX86Server) {
				h, err := r.x86Fig1Hist(wcfg)
				if err != nil {
					return "", err
				}
				hist.Merge(h)
			}
			cdfLine := "x86 bytes-used CDF:"
			cdf := hist.CDF()
			for b := 8; b <= 64; b += 8 {
				cdfLine += fmt.Sprintf(" %d:%.3f", b, cdf[b])
			}
			return tb.String() + "\n" + eff.String() + "\n" + cdfLine + "\n", nil
		},
	})
}

// x86Fig1Hist resolves x86Fig1Pass per workload through the aux layer.
func (r *Runner) x86Fig1Hist(wcfg workload.Config) (*stats.Histogram, error) {
	return r.histPass("x86fig1", wcfg, 64, func() (*stats.Histogram, error) {
		r.Opts.progress("  x86 fig1 pass: %s", wcfg.Name)
		return x86Fig1Pass(wcfg, r.functionalInstrs())
	})
}

// x86Fig1Pass is fig1Pass with byte-granular accounting (Unit=1).
func x86Fig1Pass(wcfg workload.Config, instrs uint64) (*stats.Histogram, error) {
	w, err := workload.New(wcfg)
	if err != nil {
		return nil, err
	}
	hist := stats.NewHistogram(64)
	c := cache.MustNew(cache.Config{
		Name: "x86fig1", Sets: 64, Ways: 8, BlockSize: 64, Unit: 1,
		OnEvict: func(_ int, b *cache.Block) { hist.Add(b.AccessedUnits()) },
	})
	for i := uint64(0); i < instrs; i++ {
		in, _ := w.Next()
		// Variable-length instructions may straddle a block boundary;
		// account each piece against its own block.
		addr, size := in.PC, int(in.Size)
		for size > 0 {
			blockEnd := (addr &^ 63) + 64
			n := size
			if int(blockEnd-addr) < n {
				n = int(blockEnd - addr)
			}
			ctx := cache.AccessContext{PC: addr, Cycle: i}
			if set, way, hit := c.Probe(addr); !c.AccessAt(set, way, hit, addr, n, ctx) {
				way, _ = c.FillAt(set, addr, ctx)
				c.MarkAccessedAt(set, way, addr, n)
			}
			addr += uint64(n)
			size -= n
		}
	}
	return hist, nil
}

// The congruence experiment quantifies §VI-H's claim that UBS composes
// with replacement (GHRP) and insertion (ACIC) policies.
func init() {
	register(Experiment{
		ID:    "congruence",
		Title: "Extension: UBS in congruence with GHRP-style replacement and ACIC-style admission (§VI-H)",
		Paper: "the paper argues the mechanisms are complementary (\"UBS can work in congruence with ACIC and GHRP\") without quantifying the combination",
		Run: func(r *Runner) (string, error) {
			mk := func(name string, dead, admitF bool) (Design, error) {
				return sim.NewUBSDesign(sim.UBSDesign{
					Name: name, DeadBlockWays: dead, AdmissionFilter: admitF,
				})
			}
			designs := []Design{designUBS()}
			for _, v := range []struct {
				name         string
				dead, admitF bool
			}{
				{"ubs+ghrp", true, false},
				{"ubs+acic", false, true},
				{"ubs+both", true, true},
			} {
				d, err := mk(v.name, v.dead, v.admitF)
				if err != nil {
					return "", err
				}
				designs = append(designs, d)
			}
			tb, err := r.speedups(designConv32(), designs,
				[]workload.Family{workload.FamilyServer})
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})
}
