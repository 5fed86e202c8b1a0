package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
)

// samples pools named observations: one value per repetition for
// whole-repetition figures, one per operation for latencies.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: map[string][]float64{}} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.m[name] = append(s.m[name], v)
	s.mu.Unlock()
}

func (s *samples) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m[name])
}

// pct returns the p-th percentile (0..100) of name's observations by linear
// interpolation between closest ranks; 0 when there are none.
func (s *samples) pct(name string, p float64) float64 {
	s.mu.Lock()
	xs := append([]float64(nil), s.m[name]...)
	s.mu.Unlock()
	return percentile(xs, p)
}

func (s *samples) median(name string) float64 { return s.pct(name, 50) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is what the measured phase produced: each repetition's wall time,
// split by whether it was traced, and each repetition's peak resident set.
type window struct {
	untraced, traced []float64
	peakRSSMB        []float64
}

// repeat runs the workload's fixed unit of work until the measured window
// is spent: at least min repetitions, and another only while the median
// repetition still fits. In a traced run, odd repetitions are traced and
// even ones are not, so one invocation yields both the per-layer numbers
// and the untraced reference the tracing overhead is taken against.
func repeat(cfg config, min int, rep func(i int, traced bool) (wall time.Duration, err error)) (window, error) {
	// Hand set-up's garbage back to the OS first, so the resident set is
	// the measured phase's own.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	defer rss.stop()
	var w window
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		on := cfg.trace && i%2 == 1
		wall, err := rep(i, on)
		if err != nil {
			return w, fmt.Errorf("repetition %d: %w", i, err)
		}
		w.peakRSSMB = append(w.peakRSSMB, rss.takePeak())
		walls = append(walls, wall.Seconds())
		if on {
			w.traced = append(w.traced, wall.Seconds())
		} else {
			w.untraced = append(w.untraced, wall.Seconds())
		}
		if i+1 >= min && time.Since(start).Seconds()+median(walls) > cfg.seconds {
			return w, nil
		}
	}
}

// rssSampler polls the process's resident set every 5 ms and keeps the
// highest sample since it was last taken.
type rssSampler struct {
	mu   sync.Mutex
	hi   float64
	done chan struct{}
	wg   sync.WaitGroup
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{hi: residentMB(), done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				v := residentMB()
				s.mu.Lock()
				s.hi = max(s.hi, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// takePeak returns the highest sample since the last call and starts a
// new interval.
func (s *rssSampler) takePeak() float64 {
	v := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := max(s.hi, v)
	s.hi = v
	return peak
}

func (s *rssSampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// residentMB reads the resident set size from /proc/self/statm (0 where
// that file does not exist).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rtSample reads the process-wide allocation and GC counters.
type rtSample struct {
	allocBytes, gcCycles, pauseSeconds float64
}

var rtMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s rtSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = float64(ms[0].Value.Uint64())
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = float64(ms[1].Value.Uint64())
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			s.pauseSeconds += float64(c) * (lo + hi) / 2
		}
	}
	return s
}

// addRuntime records the allocation and GC work done since before.
func addRuntime(s *samples, before rtSample) {
	after := readRuntime()
	s.add("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20))
	s.add("runtime.gc_cycles", after.gcCycles-before.gcCycles)
	s.add("runtime.gc_pause_ms", (after.pauseSeconds-before.pauseSeconds)*1000)
}

// retainedHeapMB forces a collection and reports the live heap, with
// whatever the caller keeps reachable (the Runner's memo, its warm pool,
// the server) still counted. The second collection drops what sync.Pool
// caches (encoder and connection buffers) keep for one more cycle, which
// depends on the last requests served rather than on retained state.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

var (
	schemeNames = func() []string {
		var out []string
		for _, s := range core.Schemes() {
			out = append(out, s.String())
		}
		return out
	}()
	styleNames = []string{cache.VIVT.String(), cache.VIPT.String(), cache.PIPT.String()}
)

// simCounts are the simulated work counters the fingerprint covers: pure
// functions of the configuration, so identical code must reproduce them
// exactly.
var simCounts = []struct {
	name string
	get  func(r *sim.Result) uint64
}{
	{"pipeline.committed", func(r *sim.Result) uint64 { return r.Committed }},
	{"pipeline.cycles", func(r *sim.Result) uint64 { return r.Cycles }},
	{"pipeline.wrong_path_fetches", func(r *sim.Result) uint64 { return r.WrongPathFetches }},
	{"core.itlb_lookups", func(r *sim.Result) uint64 { return r.Engine.Lookups }},
	{"core.cfr_hits", func(r *sim.Result) uint64 { return r.Engine.CFRHits }},
	{"tlb.itlb_misses", func(r *sim.Result) uint64 { return r.ITLB.Walks }},
	{"tlb.dtlb_lookups", func(r *sim.Result) uint64 { return sum(r.DTLB.Accesses) }},
	{"cache.il1_accesses", func(r *sim.Result) uint64 { return r.IL1.Accesses }},
	{"cache.dl1_accesses", func(r *sim.Result) uint64 { return r.DL1.Accesses }},
	{"cache.l2_accesses", func(r *sim.Result) uint64 { return r.L2.Accesses }},
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// simTally sums what a set of executed simulations report about
// themselves: simulated counts, host phase times, and measure-phase
// throughput split by scheme × style.
type simTally struct {
	n                      int
	counts                 []uint64
	setup, warmup, measure float64
	committed              float64
	matrix                 map[[2]string][2]float64 // scheme, style → committed, measure seconds
}

func newSimTally() *simTally {
	return &simTally{counts: make([]uint64, len(simCounts)), matrix: map[[2]string][2]float64{}}
}

func (t *simTally) add(r *sim.Result) {
	t.n++
	for i, c := range simCounts {
		t.counts[i] += c.get(r)
	}
	t.setup += r.Timing.SetupSeconds
	t.warmup += r.Timing.WarmupSeconds
	t.measure += r.Timing.MeasureSeconds
	t.committed += float64(r.Committed)
	k := [2]string{r.Scheme.String(), r.Style.String()}
	v := t.matrix[k]
	t.matrix[k] = [2]float64{v[0] + float64(r.Committed), v[1] + r.Timing.MeasureSeconds}
}

// fingerprint renders the simulated counts; equal strings mean equal
// simulated work.
func (t *simTally) fingerprint() string {
	parts := []string{fmt.Sprintf("sims=%d", t.n)}
	for i, c := range simCounts {
		parts = append(parts, fmt.Sprintf("%s=%d", c.name, t.counts[i]))
	}
	return strings.Join(parts, " ")
}

// record adds the tally's per-layer figures to s.
func (t *simTally) record(s *samples) {
	s.add("sim.setup_s", t.setup)
	s.add("sim.warmup_s", t.warmup)
	s.add("sim.measure_s", t.measure)
	if t.measure > 0 {
		s.add("sim.inst_per_s", t.committed/t.measure)
	}
	if t.committed > 0 {
		s.add("pipeline.ns_per_inst", t.measure*1e9/t.committed)
	}
	byScheme, byStyle := map[string][2]float64{}, map[string][2]float64{}
	for k, v := range t.matrix {
		a, b := byScheme[k[0]], byStyle[k[1]]
		byScheme[k[0]] = [2]float64{a[0] + v[0], a[1] + v[1]}
		byStyle[k[1]] = [2]float64{b[0] + v[0], b[1] + v[1]}
	}
	for k, v := range byScheme {
		if v[1] > 0 {
			s.add("sim.inst_per_s.scheme."+k, v[0]/v[1])
		}
	}
	for k, v := range byStyle {
		if v[1] > 0 {
			s.add("sim.inst_per_s.style."+k, v[0]/v[1])
		}
	}
	for i, c := range simCounts {
		s.add(c.name, float64(t.counts[i]))
	}
}

// matrixNote renders measure-phase throughput per scheme × style in M
// inst/s, the split that shows which cells of the matrix are slow.
func (t *simTally) matrixNote() string {
	var b strings.Builder
	fmt.Fprintf(&b, "measure-phase throughput, M inst/s (scheme x style):\n%-6s", "")
	for _, st := range styleNames {
		fmt.Fprintf(&b, " %8s", st)
	}
	for _, sc := range schemeNames {
		fmt.Fprintf(&b, "\n%-6s", sc)
		for _, st := range styleNames {
			v := t.matrix[[2]string{sc, st}]
			if v[1] > 0 {
				fmt.Fprintf(&b, " %8.1f", v[0]/v[1]/1e6)
			} else {
				fmt.Fprintf(&b, " %8s", "-")
			}
		}
	}
	return b.String()
}

// finish turns per-repetition figures into the outcome's values; values
// the workload already set (per-layer percentiles of per-operation pools)
// are kept.
// e2e holds the untraced repetitions, layer the traced ones. A metric
// missing from both is left for main to report (as 0 for a layer the
// workload does not exercise).
//
// End-to-end timings take the fastest decile over repetitions. On a shared
// host, interference comes in bursts of several seconds that slow every
// repetition they overlap by up to a third (latency-bound serving most),
// and how much of a run they cover varies from run to run; the fastest
// decile is what the code does when they are absent, so a slower change
// still moves it. Everything else is the median over repetitions.
func finish(o *outcome, e2e, layer *samples, w window) {
	o.values["wall_s"] = percentile(append([]float64(nil), w.untraced...), 10)
	for _, name := range []string{"sim_p50_ms", "sim_p90_ms"} {
		if _, set := o.values[name]; !set && e2e.count(name) > 0 {
			o.values[name] = e2e.pct(name, 10)
		}
	}
	if e2e.count("inst_per_s") > 0 {
		o.values["inst_per_s"] = e2e.pct("inst_per_s", 90)
	}
	o.values["peak_rss_mb"] = median(w.peakRSSMB)
	q := w.untraced
	o.note("wall_s over %d untraced repetitions: min %.4f, quartiles %.4f %.4f %.4f, max %.4f s",
		len(q), percentile(q, 0), percentile(q, 25), percentile(q, 50), percentile(q, 75), percentile(q, 100))
	if len(w.traced) > 0 {
		o.values["tracing.overhead_s"] = median(w.traced) - median(w.untraced)
	}
	for _, s := range []*samples{layer, e2e} {
		for _, name := range sortedKeys(s.m) {
			if _, set := o.values[name]; !set {
				o.values[name] = s.median(name)
			}
		}
	}
}
