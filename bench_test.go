package itlbcfr_test

// One benchmark per table/figure of the paper's evaluation. Each iteration
// regenerates the table from scratch (fresh Runner, fresh simulations) at a
// reduced instruction count so the full bench suite completes in minutes;
// use cmd/itlbtables for full-length regeneration.

import (
	"context"
	"runtime"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

const (
	benchN    = 100_000
	benchWarm = 30_000
)

func benchTable(b *testing.B, spec exp.Spec) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchN, benchWarm)
		t, err := spec.Generate(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkTable2(b *testing.B) { benchTable(b, exp.Table2Spec()) }
func BenchmarkTable3(b *testing.B) { benchTable(b, exp.Table3Spec()) }
func BenchmarkTable4(b *testing.B) { benchTable(b, exp.Table4Spec()) }
func BenchmarkTable5(b *testing.B) { benchTable(b, exp.Table5Spec()) }
func BenchmarkTable6(b *testing.B) { benchTable(b, exp.Table6Spec()) }
func BenchmarkTable7(b *testing.B) { benchTable(b, exp.Table7Spec()) }
func BenchmarkTable8(b *testing.B) { benchTable(b, exp.Table8Spec()) }

func BenchmarkFigure4(b *testing.B) {
	// Also report the headline number: IA's average normalized VI-PT
	// energy (the paper's ">85% savings" claim, Figure 4 top).
	var avgIA float64
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchN, benchWarm)
		var sum float64
		for _, p := range workload.Profiles() {
			base, err := r.Result(context.Background(), sim.Options{Profile: p, Scheme: core.Base, Style: cache.VIPT})
			if err != nil {
				b.Fatal(err)
			}
			ia, err := r.Result(context.Background(), sim.Options{Profile: p, Scheme: core.IA, Style: cache.VIPT})
			if err != nil {
				b.Fatal(err)
			}
			sum += ia.EnergyMJ / base.EnergyMJ
		}
		avgIA = sum / float64(len(workload.Profiles()))
	}
	b.ReportMetric(avgIA*100, "IA_pct_of_base_energy")
}

func BenchmarkFigure5(b *testing.B) { benchTable(b, exp.Figure5Spec()) }
func BenchmarkFigure6(b *testing.B) { benchTable(b, exp.Figure6Spec()) }

func BenchmarkSweepPageSize(b *testing.B) { benchTable(b, exp.PageSizeSweepSpec()) }
func BenchmarkSweepIL1(b *testing.B)      { benchTable(b, exp.IL1SweepSpec()) }

// benchAll regenerates every table and figure from scratch with the given
// worker-pool bound; BenchmarkAllSerial vs BenchmarkAllParallel is the
// engine's headline speedup.
func benchAll(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchN, benchWarm)
		r.Workers = workers
		tables, err := exp.All(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) < 15 {
			b.Fatalf("only %d tables", len(tables))
		}
	}
}

func BenchmarkAllSerial(b *testing.B)   { benchAll(b, 1) }
func BenchmarkAllParallel(b *testing.B) { benchAll(b, runtime.NumCPU()) }

// BenchmarkAllSerialNoWarmFork is BenchmarkAllSerial with warm-state
// forking disabled: every simulation re-executes its own warm-up, as all
// of them did before the checkpointing change. The delta against
// BenchmarkAllSerial is the sweep-level win of executing each distinct
// warm-up once.
func BenchmarkAllSerialNoWarmFork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchN, benchWarm)
		r.Workers = 1
		r.DisableWarmFork = true
		if _, err := exp.All(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRun is sim.Run with the error checked.
func benchRun(b *testing.B, opt sim.Options) {
	b.Helper()
	if _, err := sim.Run(opt); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// per wall second) for the default configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, sim.Options{
			Profile: workload.Mesa(), Scheme: core.IA, Style: cache.VIPT,
			Instructions: 500_000, Warmup: 1,
		})
	}
	b.SetBytes(0)
	b.ReportMetric(float64(500_000*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkAblationCFRCheckpoint quantifies the cost of CFR checkpointing
// by comparing IA (checkpoint per CTI) against HoA (no branch machinery) —
// the design choice DESIGN.md calls out for the IA scheme.
func BenchmarkAblationCFRCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchRun(b, sim.Options{
			Profile: workload.Crafty(), Scheme: core.IA, Style: cache.VIPT,
			Instructions: 200_000, Warmup: 1,
		})
		benchRun(b, sim.Options{
			Profile: workload.Crafty(), Scheme: core.HoA, Style: cache.VIPT,
			Instructions: 200_000, Warmup: 1,
		})
	}
}
