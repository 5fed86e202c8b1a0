// Command perfbench is itlbcfr's end-to-end and per-layer benchmark. It
// runs one named workload in-process against the packages' public APIs,
// checks the outputs, and prints its metrics; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. See README.md in this directory for the workloads, the metrics
// and how to read them.
//
//	perfbench --workload regen|serve|ingest --seed N --seconds S --trace 0|1 [--work DIR]
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions and reports the per-layer
// metrics, the layers' span self times and the tracing overhead. A failed
// output check prints correct=false and exits 1.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// metric sets BENCHMARK.json declares; every workload reports every metric
// of the set its mode prints.
type metricDef struct{ name, unit string }

// endToEnd is what a user of itlbcfr sees, reported on every workload
// (README.md gives each workload's reading of the latency metrics).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"inst_per_s", "inst/s"},
	{"retained_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_p50_ms", "ms"},
	{"sim_p90_ms", "ms"},
}

// perLayer is the traced run's output. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.sim_handler_ms", "ms"},
		{"server.batch_handler_ms", "ms"},
		{"server.table_handler_ms", "ms"},
		{"server.upload_handler_ms", "ms"},
		{"server.sim_response_bytes", "bytes"},
		{"server.batch_response_bytes", "bytes"},
		{"server.table_response_bytes", "bytes"},
		{"server.rejected", "count"},
		{"client.overhead_ms", "ms"},
		{"client.batch_p50_ms", "ms"},
		{"client.table_p50_ms", "ms"},
		{"client.upload_p50_ms", "ms"},
		{"client.sim_p99_ms", "ms"},
		{"client.fail_ratio", "ratio"},
		{"exp.runs", "count"},
		{"exp.memo_hits", "count"},
		{"exp.backing_hits", "count"},
		{"exp.coalesced", "count"},
		{"exp.memo_hit_ratio", "ratio"},
		{"exp.prefetch_s", "s"},
		{"exp.render_s", "s"},
		{"sim.warmups", "count"},
		{"sim.warm_hits", "count"},
		{"sim.warm_entries", "count"},
		{"sim.setup_s", "s"},
		{"sim.warmup_s", "s"},
		{"sim.measure_s", "s"},
		{"sim.inst_per_s", "inst/s"},
	}
	for _, s := range schemeNames {
		defs = append(defs, metricDef{"sim.inst_per_s.scheme." + s, "inst/s"})
	}
	for _, s := range styleNames {
		defs = append(defs, metricDef{"sim.inst_per_s.style." + s, "inst/s"})
	}
	defs = append(defs,
		metricDef{"store.get_ms_p50", "ms"},
		metricDef{"store.get_ms_p99", "ms"},
		metricDef{"store.gets", "count"},
		metricDef{"store.get_hit_ratio", "ratio"},
		metricDef{"store.put_ms_p50", "ms"},
		metricDef{"store.put_ms_p99", "ms"},
		metricDef{"store.puts", "count"},
		metricDef{"store.put_errors", "count"},
		metricDef{"trace.synth_s", "s"},
		metricDef{"trace.bytes_uploaded", "bytes"},
	)
	for _, c := range simCounts {
		defs = append(defs, metricDef{c.name, "count"})
	}
	defs = append(defs,
		metricDef{"pipeline.ns_per_inst", "ns/inst"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
	)
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"span." + l + ".self_s", "s"})
	}
	return append(defs, metricDef{"tracing.overhead_s", "s"})
}()

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // work directory for stores, spans and fingerprints
}

// outcome is what a workload hands back: the operations it attempted and
// lost, the values of its metrics, failed output checks, and report lines.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	problems          []string
	notes             []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config, *outcome) error{
	"regen":  runRegen,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: regen, serve or ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs (regen is fixed and ignores it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "work directory for stores, spans and fingerprints")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := checkDeclaration("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload regen|serve|ingest, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// A run must end well inside the three minutes a caller allows it.
	time.AfterFunc(time.Duration(cfg.seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})

	fmt.Printf("host: %s\n", hostLine())
	o := &outcome{values: map[string]float64{}}
	if err := run(context.Background(), cfg, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if o.attempted > 0 {
		o.values["client.fail_ratio"] = float64(o.failed) / float64(o.attempted)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !cfg.trace && (!ok || v <= 0) {
			o.problem("end-to-end metric %s was not measured", d.name)
		}
		fmt.Printf("%-34s %16.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(o.problems) == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(o.problems) > 0 {
		os.Exit(1)
	}
}

// checkDeclaration fails when the metric lists of the benchmark
// declaration, if the run starts next to one, differ from the metrics this
// program reports, so the two cannot drift apart.
func checkDeclaration(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []struct{ Name, Unit string }, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				return false
			}
		}
		return true
	}
	if !same(decl.EndToEnd, endToEnd) || !same(decl.PerLayer, perLayer) {
		return fmt.Errorf("%s declares other metrics than perfbench reports", path)
	}
	return nil
}

// hostLine describes the machine the numbers were taken on.
func hostLine() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// freshDir makes a new directory under the run's work directory.
func freshDir(cfg config, name string) (string, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.work, name+"-")
}

// expected holds the committed values of the outputs that do not depend
// on the seed: "key: value" lines, # starts a comment.
//
//go:embed expected.txt
var expected string

// checkExpected compares a seed-independent output with its committed
// value in expected.txt. A change to the simulator's model must update the
// file; a speed-only change must leave it as it is.
func checkExpected(o *outcome, key, got string) {
	for _, l := range strings.Split(expected, "\n") {
		if k, v, ok := strings.Cut(l, ": "); ok && k == key {
			if v != got {
				o.problem("%s differs from perfbench/expected.txt; a change to the model updates that line to:\n%s: %s", key, key, got)
			}
			return
		}
	}
	o.problem("perfbench/expected.txt has no %s line; it should read:\n%s: %s", key, key, got)
}

// checkFingerprint compares a run's simulated-count fingerprint with the
// one an earlier run of the same binary, workload and seed left in the
// work directory, and records it for the next run. It is for seeded
// outputs, which have no committed value: identical code must simulate
// identically, so any difference is a failed check.
func checkFingerprint(cfg config, o *outcome, id, fp string) {
	exe, err := os.Executable()
	if err == nil {
		var b []byte
		if b, err = os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%s-%x", id, sha256.Sum256(b))[:len(id)+17]
		}
	}
	if err != nil {
		o.note("fingerprint not compared: %v", err)
		return
	}
	dir := filepath.Join(cfg.work, "fingerprints")
	path := filepath.Join(dir, id+".txt")
	if prev, err := os.ReadFile(path); err == nil && string(prev) != fp {
		o.problem("%s: simulated counts differ from an earlier run in this checkout:\n  was %s\n  now %s", id, prev, fp)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		o.note("fingerprint not recorded: %v", err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fp), 0o644); err != nil {
		o.note("fingerprint not recorded: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		o.note("fingerprint not recorded: %v", err)
	}
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
