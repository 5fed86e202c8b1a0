package exp

import (
	"fmt"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

// PageSizeSweepSpec declares the §4.4 page-size sensitivity: IA's lookup
// counts and normalized energy with 4KB/8KB/16KB pages.
func PageSizeSweepSpec() Spec {
	pages := []uint64{4096, 8192, 16384}
	return Spec{
		ID:      "Sweep P",
		Title:   "Page-size sensitivity (§4.4): IA VI-PT lookups (normalized energy)",
		Columns: []string{"Benchmark", "4KB", "8KB", "16KB"},
		Notes:   []string{"larger pages widen CFR coverage: fewer lookups, lower normalized energy"},
		Axes: []Axes{{
			Schemes:   []core.Scheme{core.Base, core.IA},
			PageBytes: pages,
		}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, pb := range pages {
					base := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, PageBytes: pb})
					ia := get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, PageBytes: pb})
					row = append(row, fmt.Sprintf("%d (%s)", ia.Engine.Lookups, pct(ia.EnergyMJ/base.EnergyMJ)))
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// il1Pipelines returns Table 1 machines with the given iL1 sizes.
func il1Pipelines(sizes []int) []*pipeline.Config {
	cfgs := make([]*pipeline.Config, len(sizes))
	for i, size := range sizes {
		pcfg := sim.DefaultPipeline()
		pcfg.IL1.SizeBytes = size
		cfgs[i] = &pcfg
	}
	return cfgs
}

// IL1SweepSpec declares the §4.4 iL1 sensitivity: IA's VI-VT cycle savings
// with smaller and larger instruction caches.
func IL1SweepSpec() Spec {
	sizes := []int{4 << 10, 8 << 10, 16 << 10}
	pipes := il1Pipelines(sizes)
	return Spec{
		ID:      "Sweep C",
		Title:   "iL1-size sensitivity (§4.4): IA cycle savings under VI-VT",
		Columns: []string{"Benchmark", "4KB iL1", "8KB iL1", "16KB iL1"},
		Notes:   []string{"smaller iL1 -> more misses -> translation more often on the critical path -> bigger IA savings"},
		Axes: []Axes{{
			Schemes:   []core.Scheme{core.Base, core.IA},
			Styles:    []cache.Style{cache.VIVT},
			Pipelines: pipes,
		}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, pcfg := range pipes {
					base := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIVT, Pipeline: pcfg})
					ia := get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIVT, Pipeline: pcfg})
					row = append(row, fmt.Sprintf("%.2f%% (miss %s)",
						100*(1-float64(ia.Cycles)/float64(base.Cycles)), f3(base.IL1MissRate())))
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}

// DataCFRSweepSpec declares the §5 future-work ablation: how many dTLB
// lookups a data-side CFR would avoid, per benchmark.
func DataCFRSweepSpec() Spec {
	pcfg := sim.DefaultPipeline()
	pcfg.DataCFR = true
	return Spec{
		ID:      "Sweep D",
		Title:   "Data-side CFR (dCFR, §5 future work): dTLB lookups avoided",
		Columns: []string{"Benchmark", "data references", "dCFR hits", "avoided"},
		Notes: []string{
			"a single data-page register already removes most dTLB lookups — the data-reference analogue of the paper's instruction-side claim",
		},
		Axes: []Axes{{Pipelines: []*pipeline.Config{&pcfg}}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				res := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, Pipeline: &pcfg})
				total := res.DCFRHits + res.DCFRLookups
				if total == 0 {
					total = 1
				}
				rows = append(rows, []string{
					p.Name,
					fmt.Sprintf("%d", res.DCFRHits+res.DCFRLookups),
					fmt.Sprintf("%d", res.DCFRHits),
					pct(float64(res.DCFRHits) / float64(total)),
				})
			}
			return rows
		},
	}
}

// ContextSwitchSweepSpec declares the §3.2 OS-contract sweep: the CFR is
// saved/restored across context switches while the iTLB flushes, so the CFR
// schemes' energy advantage persists (and base pays flush re-walks).
func ContextSwitchSweepSpec() Spec {
	intervals := []uint64{0, 50_000, 10_000}
	pipes := make([]*pipeline.Config, len(intervals))
	for i, every := range intervals {
		pcfg := sim.DefaultPipeline()
		pcfg.ContextSwitchEvery = every
		pipes[i] = &pcfg
	}
	subset := workload.Profiles()[:3] // representative subset
	return Spec{
		ID:      "Sweep X",
		Title:   "Context-switch pressure (§3.2): walks and IA's normalized energy",
		Columns: []string{"Switches", "Benchmark", "Base walks", "IA walks", "IA E % of base"},
		Notes: []string{
			"the CFR survives switches as saved/restored register state; IA's savings are flush-invariant",
		},
		Axes: []Axes{{
			Profiles:  subset,
			Schemes:   []core.Scheme{core.Base, core.IA},
			Pipelines: pipes,
		}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for i, every := range intervals {
				label := "none"
				if every > 0 {
					label = fmt.Sprintf("every %dK", every/1000)
				}
				for _, p := range subset {
					base := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, Pipeline: pipes[i]})
					ia := get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, Pipeline: pipes[i]})
					rows = append(rows, []string{
						label, p.Name,
						fmt.Sprintf("%d", base.ITLB.Walks),
						fmt.Sprintf("%d", ia.ITLB.Walks),
						pct(ia.EnergyMJ / base.EnergyMJ),
					})
				}
			}
			return rows
		},
	}
}

// TechSweepSpec declares the technology-scaling sweep: absolute iTLB+CFR
// energy for Base and IA at the paper's 0.1 µm point and two shrinks. The
// technology point only rescales joules — every architectural count is
// identical across the row — so all three cells of a (benchmark, scheme)
// pair share one warm-up through the Runner's warm-state pool, making this
// the cheapest sweep per cell.
func TechSweepSpec() Spec {
	nms := []float64{100, 70, 50}
	techs := make([]*energy.Tech, len(nms))
	for i, nm := range nms {
		techs[i] = &energy.Tech{FeatureNm: nm}
	}
	return Spec{
		ID:      "Sweep T",
		Title:   "Technology scaling: absolute iTLB+CFR energy (mJ), Base vs IA",
		Columns: []string{"Benchmark", "100nm Base", "100nm IA", "70nm Base", "70nm IA", "50nm Base", "50nm IA"},
		Notes: []string{
			"shrinks rescale every unit energy identically, so IA's relative savings are technology-invariant",
		},
		Axes: []Axes{{
			Schemes: []core.Scheme{core.Base, core.IA},
			Techs:   techs,
		}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, tc := range techs {
					base := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, Tech: tc})
					ia := get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, Tech: tc})
					row = append(row, f3(base.EnergyMJ), f3(ia.EnergyMJ))
				}
				rows = append(rows, row)
			}
			return rows
		},
	}
}
