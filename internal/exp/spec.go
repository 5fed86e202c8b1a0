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
// the whole table runs as one parallel batch), and a row formatter that
// reads the batch's results.
type Spec struct {
	ID      string
	Title   string
	Columns []string
	Notes   []string

	// Axes lists the configuration blocks whose union is the spec's cell
	// set. Empty for static tables that need no simulation.
	Axes []Axes

	// Rows formats the table body. get returns the result of one cell the
	// Axes declare; reading any other cell makes Generate fail.
	Rows func(get func(sim.Options) sim.Result) [][]string
}

// Cells enumerates every simulation the spec needs.
func (s Spec) Cells() []sim.Options {
	var out []sim.Options
	for _, a := range s.Axes {
		out = append(out, a.Enumerate()...)
	}
	return out
}

// Generate runs the spec's cells as one batch (bounded by r.Workers)
// and formats the table. The rendered output is deterministic: rows are
// formatted serially from the batch's results, so parallel and serial runs
// produce byte-identical tables. A static spec (no Axes) needs no Runner.
func (s Spec) Generate(ctx context.Context, r *Runner) (Table, error) {
	cells := s.Cells()
	var results []sim.Result
	index := make(map[string]int, len(cells))
	if len(cells) > 0 {
		res, errs, keys := r.lookup(ctx, cells)
		for i, k := range keys {
			if errs[i] != nil {
				return Table{}, fmt.Errorf("exp: %s: %w", s.ID, errs[i])
			}
			index[k] = i
		}
		results = res
	}
	t := Table{ID: s.ID, Title: s.Title, Columns: s.Columns, Notes: s.Notes}
	if s.Rows == nil {
		return t, nil
	}
	var undeclared error
	t.Rows = s.Rows(func(opt sim.Options) sim.Result {
		key := ""
		if r != nil {
			key = r.Key(opt)
		}
		i, ok := index[key]
		if !ok {
			if undeclared == nil {
				undeclared = fmt.Errorf("exp: %s: Rows read a cell its Axes do not declare: %s %s %s (key %s)",
					s.ID, opt.BenchName(), opt.Scheme, opt.Style, key)
			}
			return sim.Result{}
		}
		return results[i]
	})
	if undeclared != nil {
		return Table{}, undeclared
	}
	return t, nil
}
