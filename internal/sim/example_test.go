package sim_test

import (
	"fmt"
	"log"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

// ExampleRun reproduces the paper's headline comparison in a few lines: the
// IA scheme against the base machine on one benchmark.
func ExampleRun() {
	opts := sim.Options{
		Profile:      workload.Mesa(),
		Style:        cache.VIPT,
		Instructions: 100_000,
		Warmup:       30_000,
	}

	opts.Scheme = core.Base
	base, err := sim.Run(opts)
	if err != nil {
		log.Fatal(err)
	}
	opts.Scheme = core.IA
	ia, err := sim.Run(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("IA avoids %d of %d iTLB lookups\n",
		base.Engine.Lookups-ia.Engine.Lookups, base.Engine.Lookups)
	fmt.Printf("energy saving over 85%%: %v\n", ia.EnergyMJ < 0.15*base.EnergyMJ)
	// Output:
	// IA avoids 120589 of 124028 iTLB lookups
	// energy saving over 85%: true
}
