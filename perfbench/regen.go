package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"itlbcfr/internal/exp"
	"itlbcfr/internal/sim"
)

// goldenDir holds the byte-exact table renderings the regen check compares
// against, relative to the repository root the benchmark runs from.
const goldenDir = "internal/exp/testdata/golden"

// regenSetups is how many times the set-up, about two milliseconds of
// work, is repeated for setup_s. The first few run cold; with 201 the
// median is the warm figure and the set-ups span about 0.4 s, so a short
// burst of host interference cannot move it.
const regenSetups = 201

// runRegen regenerates every table and figure at the default simulation
// length on a fresh Runner per repetition (two workers, warm-fork pool on,
// no backing store): Runner.Prefetch over the union of the specs' cells,
// then Spec.Generate and Render for each spec, the way exp.All and
// itlbtables do. Its inputs are the paper's fixed matrix; the seed is
// ignored.
func runRegen(ctx context.Context, cfg config, o *outcome) error {
	e2e, layer := newSamples(), newSamples()

	// Set-up: the spec declarations, their cells, and the distinct cell
	// set keyed the way the Runner dedupes them.
	var specs []exp.Spec
	var all, cells []sim.Options
	var setups []float64
	for range regenSetups {
		runtime.GC() // start every set-up from the same collector state
		t0 := time.Now()
		specs = exp.Specs()
		all = exp.Cells(specs)
		r := &exp.Runner{Workers: 2}
		distinct := map[string]sim.Options{}
		for _, c := range all {
			distinct[r.Key(c)] = c
		}
		setups = append(setups, time.Since(t0).Seconds())
		cells = cells[:0]
		for _, k := range sortedKeys(distinct) {
			cells = append(cells, distinct[k])
		}
	}
	o.values["setup_s"] = median(setups)

	var firstTables [32]byte
	var firstCounts string
	spansWritten := false
	w, err := repeat(cfg, 1, func(i int, on bool) (time.Duration, error) {
		var tr *tracer
		s := e2e
		if on {
			tr, s = newTracer(), layer
		}
		r := &exp.Runner{Workers: 2}
		rt := readRuntime()
		t0 := time.Now()
		if err := r.Prefetch(ctx, all); err != nil {
			return 0, err
		}
		t1 := time.Now()
		h := sha256.New()
		for _, sp := range specs {
			g0 := time.Now()
			tb, err := sp.Generate(ctx, r)
			if err != nil {
				return 0, err
			}
			h.Write([]byte(tb.Render()))
			tr.record(-1, "exp", "generate "+sp.ID, "", g0, time.Now())
		}
		t2 := time.Now()
		wall := t2.Sub(t0)
		tr.record(-1, "exp", "prefetch", "", t0, t1)
		addRuntime(s, rt)
		s.add("exp.prefetch_s", t1.Sub(t0).Seconds())
		s.add("exp.render_s", t2.Sub(t1).Seconds())
		st := r.Stats()
		s.add("retained_heap_mb", retainedHeapMB())

		// Checks and per-simulation figures, outside the timed phase.
		o.attempted += len(cells)
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		if i == 0 {
			firstTables = sum
		} else if sum != firstTables {
			o.problem("repetition %d rendered different tables than repetition 0", i)
		}
		tally := newSimTally()
		var requested float64
		var simMS []float64
		for _, c := range cells {
			res, ok := r.Cached(c)
			if !ok {
				o.failed++
				o.problem("cell %s/%s/%s has no result after regeneration", c.BenchName(), c.Scheme, c.Style)
				continue
			}
			tally.add(&res)
			requested += requestedInst(c)
			simMS = append(simMS, res.Timing.TotalSeconds()*1000)
		}
		s.add("inst_per_s", requested/wall.Seconds())
		s.add("sim_p50_ms", percentile(simMS, 50))
		s.add("sim_p90_ms", percentile(simMS, 90))
		if fp := tally.fingerprint(); i == 0 {
			firstCounts = fp
			o.note("regen fingerprint: %s", fp)
			o.note("regen tables sha256: %x", sum)
			o.note("%s", tally.matrixNote())
		} else if fp != firstCounts {
			o.problem("repetition %d simulated different counts:\n  rep 0: %s\n  rep %d: %s", i, firstCounts, i, fp)
		}
		tally.record(s)
		runnerFigures(s, st)
		if on {
			for l, v := range tr.selfTimes() {
				s.add("span."+l+".self_s", v)
			}
			if !spansWritten {
				spansWritten = true
				if err := tr.write(filepath.Join(cfg.work, "spans", "regen.jsonl")); err != nil {
					o.note("spans not written: %v", err)
				}
			}
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	o.note("regen: %d repetitions of %d distinct simulations (%d untraced, %d traced); simulation host-time percentiles per repetition over %d samples",
		len(w.untraced)+len(w.traced), len(cells), len(w.untraced), len(w.traced), len(cells))
	finish(o, e2e, layer, w)

	checkExpected(o, "regen.fingerprint", firstCounts)
	checkExpected(o, "regen.tables_sha256", fmt.Sprintf("%x", firstTables))
	return checkGolden(ctx, o)
}

// checkGolden regenerates every table of the golden corpus at the length
// its header records and byte-compares the rendering.
func checkGolden(ctx context.Context, o *outcome) error {
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no golden tables under %s (run from the repository root)", goldenDir)
	}
	runners := map[[2]uint64]*exp.Runner{}
	mismatched := 0
	for _, p := range paths {
		want, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		id := strings.TrimSuffix(filepath.Base(p), ".txt")
		var n, w uint64
		header, _, _ := bufio.NewReader(strings.NewReader(string(want))).ReadLine()
		if _, err := fmt.Sscanf(string(header), "# golden: "+id+" @ n=%d warmup=%d", &n, &w); err != nil {
			return fmt.Errorf("golden %s: unreadable header %q", id, header)
		}
		r := runners[[2]uint64{n, w}]
		if r == nil {
			r = &exp.Runner{Instructions: n, Warmup: w, Workers: 2}
			runners[[2]uint64{n, w}] = r
		}
		sp, err := exp.SpecByID(id)
		if err != nil {
			return err
		}
		tb, err := sp.Generate(ctx, r)
		if err != nil {
			return err
		}
		o.attempted++
		got := fmt.Sprintf("# golden: %s @ n=%d warmup=%d\n%s", id, n, w, tb.Render())
		if got != string(want) {
			mismatched++
			o.problem("golden table %s differs from %s", id, p)
		}
	}
	o.note("golden: %d of %d tables byte-identical to %s", len(paths)-mismatched, len(paths), goldenDir)
	return nil
}

// requestedInst is the simulated length a configuration asks for: its
// measured instructions plus warm-up, at the package defaults when unset.
func requestedInst(opt sim.Options) float64 {
	n, w := opt.Instructions, opt.Warmup
	if n == 0 {
		n = sim.DefaultInstructions
	}
	if w == 0 {
		w = sim.DefaultWarmup
	}
	return float64(n + w)
}
