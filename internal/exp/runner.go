package exp

import (
	"context"
	"sync"
	"time"

	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
)

// Backing is a durable second tier behind the Runner's in-memory memo,
// keyed by store.Key's canonical encoding. *store.Store implements it. A
// Backing must be safe for concurrent use. Put errors are counted by the
// Runner and otherwise dropped: a broken cache degrades to recompute, it
// never fails a simulation.
type Backing interface {
	Get(key string) (sim.Result, bool)
	Put(key string, res sim.Result) error
}

// Runner memoizes simulations so tables sharing configurations (most of
// them) do not re-simulate. It is safe for concurrent use: concurrent
// lookups with equal options coalesce onto a single in-flight simulation,
// and Batch runs misses in parallel through sim.Batch. Configurations
// are keyed by store.Key — the same canonical encoding the disk store and
// the HTTP API use — so attaching a Backing makes results durable across
// processes for free. The zero value is ready to use and runs at the
// package defaults in internal/sim.
type Runner struct {
	// Instructions and Warmup apply to every simulation (zero = package
	// defaults in internal/sim).
	Instructions uint64
	Warmup       uint64

	// Workers bounds Prefetch's and Batch's parallelism (0 =
	// runtime.NumCPU(), 1 = serial).
	Workers int

	// Backing, when non-nil, is consulted on memo misses and populated
	// after every successful simulation.
	Backing Backing

	// DisableWarmFork turns off the shared warm-state pool, making every
	// simulation execute its own warm-up. Results are byte-identical
	// either way; this exists for ablation and as an escape hatch.
	DisableWarmFork bool

	// Metrics, when set before first use, exports the Runner's counters
	// and per-stage timings (NewMetrics registers them in an obs.Registry).
	// Left nil, the Runner lazily builds an unregistered set so Stats()
	// always works.
	Metrics *Metrics

	metricsOnce sync.Once

	// warm is the shared warm-state pool: every simulation this Runner
	// executes warms up through it, so configurations differing only in
	// measured length or energy technology run one warm-up between them.
	warm     *sim.WarmPool
	warmOnce sync.Once

	mu    sync.Mutex
	cache map[string]*memoEntry
}

// pool returns the Runner's warm-state pool, nil when forking is disabled.
func (r *Runner) pool() *sim.WarmPool {
	if r.DisableWarmFork {
		return nil
	}
	r.warmOnce.Do(func() { r.warm = sim.NewWarmPool() })
	return r.warm
}

// met returns the Runner's metric set, building an unregistered one on
// first use when none was injected.
func (r *Runner) met() *Metrics {
	r.metricsOnce.Do(func() {
		if r.Metrics == nil {
			r.Metrics = NewMetrics(nil)
		}
	})
	return r.Metrics
}

// Stats is a snapshot of the Runner's counters (read from its Metrics).
type Stats struct {
	// Runs counts simulations executed by this process (backing hits are
	// not runs).
	Runs int `json:"runs"`
	// MemoHits counts lookups served by the in-memory memo, including
	// coalesced waits on in-flight simulations.
	MemoHits int `json:"memo_hits"`
	// Coalesced counts the subset of MemoHits that joined a simulation
	// still in flight rather than a settled entry.
	Coalesced int `json:"coalesced"`
	// BackingHits counts memo misses satisfied by the backing store.
	BackingHits int `json:"backing_hits"`
	// PutErrors counts failed backing writes (dropped, not fatal).
	PutErrors int `json:"put_errors"`
	// InFlight counts claimed configurations not yet settled.
	InFlight int `json:"in_flight"`
	// SimWall is cumulative wall-clock time spent executing simulations,
	// summed per simulation (a parallel batch accumulates each worker's
	// time, i.e. CPU-seconds of simulating, not pool wall time).
	SimWall time.Duration `json:"sim_wall_ns"`
	// Warm reports the shared warm-state pool: how many full warm-ups
	// ran, how many simulations forked a pooled snapshot instead, and how
	// many distinct warm states are resident.
	Warm sim.WarmStats `json:"warm"`
}

// memoEntry is one memo slot. done is closed once res and err are valid;
// waiters must not read them before it closes.
type memoEntry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// settled reports whether the entry has a published result (non-blocking).
func (e *memoEntry) settled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewRunner builds a Runner with the given simulation length.
func NewRunner(instructions, warmup uint64) *Runner {
	return &Runner{Instructions: instructions, Warmup: warmup}
}

// normalize applies the Runner's simulation length and canonicalizes every
// defaulted field to its explicit value (sim.Options.Canonical), so that
// options that differ only in how they spell the default share a memo slot
// — and a disk entry — instead of re-simulating.
func (r *Runner) normalize(opt sim.Options) sim.Options {
	if opt.Instructions == 0 {
		opt.Instructions = r.Instructions
	}
	if opt.Warmup == 0 {
		opt.Warmup = r.Warmup
	}
	return opt.Canonical()
}

// Key returns the canonical store key opt resolves to under this Runner —
// after the Runner's instruction/warm-up defaults are applied — i.e. the
// key its result is memoized and filed on disk under.
func (r *Runner) Key(opt sim.Options) string {
	return store.Key(r.normalize(opt))
}

// Cached returns the settled memoized result for opt, without claiming,
// blocking or computing. In-flight entries report false.
func (r *Runner) Cached(opt sim.Options) (sim.Result, bool) {
	m := r.met()
	key := store.Key(r.normalize(opt))
	t0 := time.Now()
	r.mu.Lock()
	e, ok := r.cache[key]
	r.mu.Unlock()
	m.memoLookup.ObserveSince(t0)
	if ok && e.settled() && e.err == nil {
		m.MemoHits.Inc()
		return e.res, true
	}
	return sim.Result{}, false
}

// claim returns the memo entry for key, reporting whether the caller now
// owns it (owner == true means the caller must settle the entry, from the
// backing store or by simulating).
func (r *Runner) claim(key string) (e *memoEntry, owner bool) {
	m := r.met()
	t0 := time.Now()
	r.mu.Lock()
	if r.cache == nil {
		r.cache = make(map[string]*memoEntry)
	}
	e, ok := r.cache[key]
	if !ok {
		e = &memoEntry{done: make(chan struct{})}
		r.cache[key] = e
	}
	r.mu.Unlock()
	m.memoLookup.ObserveSince(t0)
	if ok {
		m.MemoHits.Inc()
		if !e.settled() {
			m.Coalesced.Inc()
		}
		return e, false
	}
	m.InFlight.Inc()
	return e, true
}

// settle publishes a finished lookup: simulations that ran successfully
// count toward Runs, failures are removed from the memo so a later call can
// retry. ran distinguishes an executed simulation from a backing-store hit.
func (r *Runner) settle(key string, e *memoEntry, res sim.Result, err error, ran bool) {
	m := r.met()
	if err != nil {
		r.mu.Lock()
		delete(r.cache, key)
		r.mu.Unlock()
	} else if ran {
		m.Runs.Inc()
	}
	m.InFlight.Dec()
	e.res, e.err = res, err
	close(e.done)
}

// fromBacking consults the backing store for a claimed key.
func (r *Runner) fromBacking(key string) (sim.Result, bool) {
	if r.Backing == nil {
		return sim.Result{}, false
	}
	m := r.met()
	t0 := time.Now()
	res, ok := r.Backing.Get(key)
	m.backingRead.ObserveSince(t0)
	if ok {
		m.BackingHits.Inc()
	}
	return res, ok
}

// toBacking records a freshly computed result; errors are counted and
// dropped (an unwritable cache costs reuse, never correctness).
func (r *Runner) toBacking(key string, res sim.Result) {
	if r.Backing == nil {
		return
	}
	m := r.met()
	t0 := time.Now()
	err := r.Backing.Put(key, res)
	m.backingWrite.ObserveSince(t0)
	if err != nil {
		m.PutErrors.Inc()
	}
}

// observeRun feeds one executed simulation's wall cost into the sim_run
// stage histogram (whose sum is the Stats.SimWall total).
func (r *Runner) observeRun(res sim.Result) {
	r.met().simRun.Observe(res.Timing.TotalSeconds())
}

// Result returns the memoized result for the options, consulting the
// backing store and simulating on first use. It is Batch for one option.
func (r *Runner) Result(ctx context.Context, opt sim.Options) (sim.Result, error) {
	results, errs := r.Batch(ctx, []sim.Options{opt})
	return results[0], errs[0]
}

// Prefetch warms the memo for every option: it is Batch with the results
// dropped. It returns the first error in input order.
func (r *Runner) Prefetch(ctx context.Context, opts []sim.Options) error {
	_, errs := r.Batch(ctx, opts)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Batch runs every option through the memo and backing store and returns
// results and errors aligned with opts (errs[i] == nil means results[i] is
// valid). It is the Runner's one lookup path, behind Result, Prefetch and
// Spec.Generate; see lookup.
func (r *Runner) Batch(ctx context.Context, opts []sim.Options) ([]sim.Result, []error) {
	results, errs, _ := r.lookup(ctx, opts)
	return results, errs
}

// lookup is Batch that also returns each option's key. Every option is
// normalized and keyed, and each distinct key is claimed once: a repeat
// within the call shares its first occurrence's entry and counts no memo
// hit, and a key cached or in flight elsewhere coalesces onto that entry.
// Owned misses are served from the backing store or simulated (see run),
// then settled.
//
// Waiting on an entry another caller owns respects ctx: an owner already
// simulating runs to completion and still settles the memo for others, and
// an owner checks ctx only before it starts. If that other caller settles
// the entry with an error, for instance because its own context was
// canceled, the key is claimed again; errors of entries this call owned are
// final.
func (r *Runner) lookup(ctx context.Context, opts []sim.Options) ([]sim.Result, []error, []string) {
	results := make([]sim.Result, len(opts))
	errs := make([]error, len(opts))
	keys := make([]string, len(opts))
	pending := make([]int, len(opts))
	for i, o := range opts {
		keys[i] = r.Key(o)
		pending[i] = i
	}
	type claimed struct {
		e     *memoEntry
		owner bool
	}
	for len(pending) > 0 {
		entries := make(map[string]claimed, len(pending))
		var (
			jobs       []sim.Options
			jobKeys    []string
			jobEntries []*memoEntry
		)
		for _, i := range pending {
			k := keys[i]
			if _, dup := entries[k]; dup {
				continue
			}
			e, owner := r.claim(k)
			entries[k] = claimed{e, owner}
			if !owner {
				continue
			}
			if res, ok := r.fromBacking(k); ok {
				r.settle(k, e, res, nil, false)
				continue
			}
			jobs = append(jobs, r.normalize(opts[i]))
			jobKeys = append(jobKeys, k)
			jobEntries = append(jobEntries, e)
		}
		r.run(ctx, jobs, jobKeys, jobEntries)

		var retry []int
		for _, i := range pending {
			c := entries[keys[i]]
			if !c.owner && !c.e.settled() {
				select {
				case <-c.e.done:
				case <-ctx.Done():
					errs[i] = ctx.Err()
					continue
				}
			}
			if c.e.err != nil && !c.owner {
				retry = append(retry, i)
				continue
			}
			results[i], errs[i] = c.e.res, c.e.err
		}
		pending = retry
	}
	return results, errs, keys
}

// run simulates owned misses and settles their entries. A single miss runs
// inline on the caller's goroutine, since a prewarm pass would build it
// twice; several run through sim.Batch over the worker and warm-state pools.
// A job that never starts because ctx is done settles with ctx's error.
func (r *Runner) run(ctx context.Context, jobs []sim.Options, keys []string, entries []*memoEntry) {
	finish := func(j int, res sim.Result, err error) {
		if err == nil {
			r.observeRun(res)
		}
		r.settle(keys[j], entries[j], res, err, err == nil)
		if err == nil {
			r.toBacking(keys[j], res)
		}
	}
	switch len(jobs) {
	case 0:
	case 1:
		if err := ctx.Err(); err != nil {
			finish(0, sim.Result{}, err)
			return
		}
		res, err := sim.RunWith(jobs[0], r.pool())
		finish(0, res, err)
	default:
		sim.Batch(ctx, jobs, sim.BatchOptions{Workers: r.Workers, Pool: r.pool(), OnComplete: finish})
	}
}

// Runs reports how many distinct simulations have executed successfully.
func (r *Runner) Runs() int { return int(r.met().Runs.Value()) }

// Stats returns a snapshot of the Runner's counters.
func (r *Runner) Stats() Stats {
	m := r.met()
	var warm sim.WarmStats
	if p := r.pool(); p != nil {
		warm = p.Stats()
	}
	return Stats{
		Warm:        warm,
		Runs:        int(m.Runs.Value()),
		MemoHits:    int(m.MemoHits.Value()),
		Coalesced:   int(m.Coalesced.Value()),
		BackingHits: int(m.BackingHits.Value()),
		PutErrors:   int(m.PutErrors.Value()),
		InFlight:    int(m.InFlight.Value()),
		SimWall:     time.Duration(m.simRun.Sum() * float64(time.Second)),
	}
}
