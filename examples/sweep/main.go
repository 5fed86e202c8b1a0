// Sweep: declare a custom experiment — an iTLB associativity sweep the
// paper never ran — as an exp.Spec and regenerate it with the parallel
// engine. The point of the declarative form: a new sweep is the Axes that
// vary plus a row formatter, not a hand-rolled simulation loop.
//
//	go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

func main() {
	// A 16-entry iTLB at four associativities, under Base and IA.
	assocs := []int{1, 2, 4, 16}
	itlbs := make([]tlb.Config, len(assocs))
	for i, a := range assocs {
		itlbs[i] = tlb.Mono(16, a)
	}

	spec := exp.Spec{
		ID:      "Sweep A",
		Title:   "iTLB associativity sensitivity (16 entries, VI-PT): IA energy % of base",
		Columns: []string{"Benchmark", "direct", "2-way", "4-way", "FA"},
		Axes: []exp.Axes{{
			Schemes: []core.Scheme{core.Base, core.IA},
			ITLBs:   itlbs,
		}},
		Rows: func(get func(sim.Options) sim.Result) [][]string {
			var rows [][]string
			for _, p := range workload.Profiles() {
				row := []string{p.Name}
				for _, it := range itlbs {
					base := get(sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT, ITLB: it})
					ia := get(sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT, ITLB: it})
					row = append(row, fmt.Sprintf("%.2f%%", 100*ia.EnergyMJ/base.EnergyMJ))
				}
				rows = append(rows, row)
			}
			return rows
		},
	}

	r := exp.NewRunner(300_000, 50_000) // Workers defaults to all CPUs
	start := time.Now()
	table, err := spec.Generate(context.Background(), r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.Render())
	fmt.Printf("%d simulations in %.1fs\n", r.Runs(), time.Since(start).Seconds())
}
