package exp

import (
	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// figureSchemes are the software/hardware schemes Figures 4 and 5 compare
// against the base case.
var figureSchemes = []core.Scheme{core.HoA, core.SoCA, core.SoLA, core.IA, core.OPT}

// Figure4Spec declares the normalized iTLB energy chart for both styles.
func Figure4Spec() Spec {
	return Spec{
		ID:      "Figure 4",
		Title:   "Normalized iTLB energy consumption (percent of base case)",
		Columns: []string{"Style", "Benchmark", "HoA", "SoCA", "SoLA", "IA", "OPT"},
		Notes: []string{
			"paper averages, VI-PT: HoA 5.69%, SoCA 12.24%, SoLA 5.01%, IA 3.82%, OPT 3.20%",
			"VI-VT normalization differs from the paper's because of its base accounting (see EXPERIMENTS.md); orderings of the software schemes are preserved",
		},
		Axes: []Axes{{
			Schemes: append([]core.Scheme{core.Base}, figureSchemes...),
			Styles:  []cache.Style{cache.VIPT, cache.VIVT},
		}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, style := range []cache.Style{cache.VIPT, cache.VIVT} {
				sums := map[core.Scheme]float64{}
				for _, p := range workload.Profiles() {
					base := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: style})
					row := []string{style.String(), p.Name}
					for _, sch := range figureSchemes {
						res := r.Get(sim.Options{Profile: p, Scheme: sch, Style: style})
						n := res.EnergyMJ / base.EnergyMJ
						sums[sch] += n
						row = append(row, pct(n))
					}
					rows = append(rows, row)
				}
				avg := []string{style.String(), "AVERAGE"}
				for _, sch := range figureSchemes {
					avg = append(avg, pct(sums[sch]/float64(len(workload.Profiles()))))
				}
				rows = append(rows, avg)
			}
			return rows
		},
	}
}

// Figure5Spec declares the normalized execution cycles under VI-VT.
func Figure5Spec() Spec {
	return Spec{
		ID:      "Figure 5",
		Title:   "Normalized execution cycles for VI-VT (percent of base case)",
		Columns: []string{"Benchmark", "HoA", "SoCA", "SoLA", "IA", "OPT"},
		Axes: []Axes{{
			Schemes: append([]core.Scheme{core.Base}, figureSchemes...),
			Styles:  []cache.Style{cache.VIVT},
		}},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			sums := map[core.Scheme]float64{}
			for _, p := range workload.Profiles() {
				base := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIVT})
				row := []string{p.Name}
				for _, sch := range figureSchemes {
					res := r.Get(sim.Options{Profile: p, Scheme: sch, Style: cache.VIVT})
					n := float64(res.Cycles) / float64(base.Cycles)
					sums[sch] += n
					row = append(row, pct(n))
				}
				rows = append(rows, row)
			}
			avg := []string{"AVERAGE"}
			for _, sch := range figureSchemes {
				avg = append(avg, pct(sums[sch]/float64(len(workload.Profiles()))))
			}
			rows = append(rows, avg)
			return rows
		},
	}
}

// figure6Cases are the two-level-versus-monolithic comparisons of Figure 6.
func figure6Cases() []struct {
	name     string
	twoLevel tlb.Config
	mono     tlb.Config
} {
	return []struct {
		name     string
		twoLevel tlb.Config
		mono     tlb.Config
	}{
		{"1 + 32FA vs mono 32FA+IA", tlb.TwoLevel(1, 1, 32, 32, false), tlb.Mono(32, 32)},
		{"32FA + 96FA vs mono 128FA+IA", tlb.TwoLevel(32, 32, 96, 96, false), tlb.Mono(128, 128)},
	}
}

// Figure6Spec declares the two-level iTLB comparison: serial two-level base
// machines against monolithic iTLBs running IA.
func Figure6Spec() Spec {
	cases := figure6Cases()
	two := make([]tlb.Config, len(cases))
	mono := make([]tlb.Config, len(cases))
	for i, c := range cases {
		two[i] = c.twoLevel
		mono[i] = c.mono
	}
	return Spec{
		ID:    "Figure 6",
		Title: "Two-level iTLB vs monolithic iTLB with IA (VI-PT, serial lookup)",
		Columns: []string{"Configuration", "Benchmark", "2-level E(uJ)", "mono+IA E(uJ)",
			"E ratio", "2-level KC", "mono+IA KC", "C ratio"},
		Notes: []string{
			"paper: the 1+32 two-level base consumes ~1.55x the energy of monolithic 32FA with IA while IA is 2-10% faster",
		},
		Axes: []Axes{
			{Schemes: []core.Scheme{core.Base}, ITLBs: two},
			{Schemes: []core.Scheme{core.IA}, ITLBs: mono},
		},
		Rows: func(r *Runner) [][]string {
			var rows [][]string
			for _, c := range cases {
				for _, p := range workload.Profiles() {
					two := r.Get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, ITLB: c.twoLevel})
					mono := r.Get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, ITLB: c.mono})
					rows = append(rows, []string{
						c.name, p.Name,
						uJ(two.EnergyMJ), uJ(mono.EnergyMJ),
						pct(two.EnergyMJ / mono.EnergyMJ),
						kcycles(two.Cycles), kcycles(mono.Cycles),
						pct(float64(two.Cycles) / float64(mono.Cycles)),
					})
				}
			}
			return rows
		},
	}
}
