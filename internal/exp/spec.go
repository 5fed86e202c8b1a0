package exp

import (
	"context"
	"fmt"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/pipeline"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// Axes declares one block of an experiment's configuration space as the
// cross product of its dimensions. A nil dimension means the default axis:
// every benchmark profile, the Base scheme, VI-PT addressing, the Table 1
// iTLB, 4KB pages, and the Table 1 pipeline. A new sweep is therefore a
// declaration — list the dimensions that vary and leave the rest nil.
type Axes struct {
	Profiles  []workload.Profile
	Schemes   []core.Scheme
	Styles    []cache.Style
	ITLBs     []tlb.Config
	PageBytes []uint64
	Pipelines []*pipeline.Config
	// Techs varies the energy technology point (nil entry = the paper's
	// 0.1 µm default). Tech only rescales reported joules, so cells along
	// this axis share one warm-up through the Runner's warm-state pool.
	Techs []*energy.Tech
}

// Enumerate expands the cross product into concrete simulation options.
func (a Axes) Enumerate() []sim.Options {
	profiles := a.Profiles
	if profiles == nil {
		profiles = workload.Profiles()
	}
	schemes := a.Schemes
	if schemes == nil {
		schemes = []core.Scheme{core.Base}
	}
	styles := a.Styles
	if styles == nil {
		styles = []cache.Style{cache.VIPT}
	}
	itlbs := a.ITLBs
	if itlbs == nil {
		itlbs = []tlb.Config{{}}
	}
	pages := a.PageBytes
	if pages == nil {
		pages = []uint64{0}
	}
	pipes := a.Pipelines
	if pipes == nil {
		pipes = []*pipeline.Config{nil}
	}
	techs := a.Techs
	if techs == nil {
		techs = []*energy.Tech{nil}
	}
	out := make([]sim.Options, 0,
		len(profiles)*len(schemes)*len(styles)*len(itlbs)*len(pages)*len(pipes)*len(techs))
	for _, pf := range profiles {
		for _, sch := range schemes {
			for _, st := range styles {
				for _, it := range itlbs {
					for _, pb := range pages {
						for _, pc := range pipes {
							for _, tc := range techs {
								out = append(out, sim.Options{
									Profile: pf, Scheme: sch, Style: st,
									ITLB: it, PageBytes: pb, Pipeline: pc,
									Tech: tc,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Spec declares one table or figure: identification, the simulations it
// needs (as Axes blocks whose union is the cell set, enumerated up front so
// the whole table can prefetch in parallel), and a row formatter that runs
// once the memo is warm.
type Spec struct {
	ID      string
	Title   string
	Columns []string
	Notes   []string

	// Axes lists the configuration blocks whose union is the spec's cell
	// set. Empty for static tables that need no simulation.
	Axes []Axes

	// Rows formats the table body; every r.Get it performs hits the memo
	// warmed by the prefetch of Axes.
	Rows func(r *Runner) [][]string
}

// Cells enumerates every simulation the spec needs.
func (s Spec) Cells() []sim.Options {
	var out []sim.Options
	for _, a := range s.Axes {
		out = append(out, a.Enumerate()...)
	}
	return out
}

// Generate prefetches the spec's cells in parallel (bounded by r.Workers)
// and formats the table. The rendered output is deterministic: rows are
// formatted serially from memoized results, so parallel and serial
// prefetches produce byte-identical tables.
func (s Spec) Generate(ctx context.Context, r *Runner) (Table, error) {
	if cells := s.Cells(); len(cells) > 0 {
		if err := r.Prefetch(ctx, cells); err != nil {
			return Table{}, fmt.Errorf("exp: %s: %w", s.ID, err)
		}
	}
	t := Table{ID: s.ID, Title: s.Title, Columns: s.Columns, Notes: s.Notes}
	if s.Rows != nil {
		t.Rows = s.Rows(r)
	}
	return t, nil
}
