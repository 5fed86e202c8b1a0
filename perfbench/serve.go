package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/server"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// The serve workload's shape. Stored results are simulated at a short
// length: the timed phase never simulates, so the length only sets the
// set-up cost. The request mix is itlbload's default, sim=8 batch=1
// table=1, without its trace operation (the trace path is ingest's). The
// repository has no record of real itlbd traffic, so the mix and the Zipf
// skew are assumptions, not measurements.
const (
	serveInstructions = 20_000
	serveWarmup       = 5_000
	serveSweeps       = 16 // distinct 12-job batch sweeps
	serveOps          = 4000
	serveBatches      = 400 // 25 of each sweep
	serveTables       = 400 // 25 of each table id
	serveSetups       = 5
	zipfS             = 1.1 // popularity skew of /v1/sim configurations
)

var (
	serveITLBs = []string{"32", "16", "64", "16x2", "1+32"}
	servePages = []uint64{4096, 8192, 16384}
)

type opKind int

const (
	opSim opKind = iota
	opBatch
	opTable
)

type serveOp struct {
	kind opKind
	idx  int // into the pool, the sweeps, or the table ids
}

// serveInputs is everything the seed decides.
type serveInputs struct {
	pool     []server.SimRequest
	poolOpts []sim.Options
	sweeps   []server.BatchRequest
	sweepOps [][]sim.Options
	tables   []string
	ops      []serveOp
}

func makeServeInputs(seed uint64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &serveInputs{tables: exp.IDs()}
	var product []server.SimRequest
	for _, b := range workload.Names() {
		for _, sc := range core.Schemes() {
			for _, st := range styleNames {
				for _, it := range serveITLBs {
					for _, pb := range servePages {
						product = append(product, server.SimRequest{
							Bench: b, Scheme: sc.String(), Style: st, ITLB: it, PageBytes: pb,
						})
					}
				}
			}
		}
	}
	in.pool = product
	for _, q := range in.pool {
		opt, err := simOptions(q)
		if err != nil {
			return nil, err
		}
		in.poolOpts = append(in.poolOpts, opt)
	}
	benches := workload.Names()
	for len(in.sweeps) < serveSweeps {
		i, j := rng.Intn(len(benches)), rng.Intn(len(benches))
		if i == j {
			continue
		}
		spec := exp.AxesSpec{
			Benches:   []string{benches[i], benches[j]},
			Schemes:   schemeNames,
			Styles:    []string{styleNames[rng.Intn(len(styleNames))]},
			ITLBs:     []string{serveITLBs[rng.Intn(len(serveITLBs))]},
			PageBytes: []uint64{servePages[rng.Intn(len(servePages))]},
		}
		axes, err := spec.Axes()
		if err != nil {
			return nil, err
		}
		in.sweeps = append(in.sweeps, server.BatchRequest{Sweep: &server.SweepRequest{AxesSpec: spec}})
		in.sweepOps = append(in.sweepOps, axes.Enumerate())
	}
	// The mix has fixed proportions, every sweep and table equally often,
	// so seeds vary which configurations are popular but not how much
	// work a repetition is. Popularity is a seeded ranking of the pool,
	// drawn Zipf-skewed.
	for i := range serveBatches {
		in.ops = append(in.ops, serveOp{opBatch, i % len(in.sweeps)})
	}
	for i := range serveTables {
		in.ops = append(in.ops, serveOp{opTable, i % len(in.tables)})
	}
	rank := rng.Perm(len(in.pool))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(in.pool)-1))
	for len(in.ops) < serveOps {
		in.ops = append(in.ops, serveOp{opSim, rank[zipf.Uint64()]})
	}
	rng.Shuffle(len(in.ops), func(i, j int) { in.ops[i], in.ops[j] = in.ops[j], in.ops[i] })
	return in, nil
}

// simOptions resolves a request the way the server does for a profile
// workload.
func simOptions(q server.SimRequest) (sim.Options, error) {
	p, err := workload.ByName(q.Bench)
	if err != nil {
		return sim.Options{}, err
	}
	opt := sim.Options{Profile: p, PageBytes: q.PageBytes, Instructions: q.Instructions, Warmup: q.Warmup}
	if opt.Scheme, err = core.ParseScheme(q.Scheme); err != nil {
		return sim.Options{}, err
	}
	if opt.Style, err = cache.ParseStyle(q.Style); err != nil {
		return sim.Options{}, err
	}
	if opt.ITLB, err = tlb.ParseSpec(q.ITLB); err != nil {
		return sim.Options{}, err
	}
	return opt, opt.Validate()
}

// serveState is the populated store and what the checks compare with.
type serveState struct {
	dir      string
	st       *store.Store
	keys     []string // per pool entry
	sweepKey []map[string]bool
	expected map[string]sim.Result // as stored
	tables   map[string]exp.Table  // as a client decodes them
	tally    *simTally             // the set-up simulations
}

// populate simulates every configuration the load can ask for into a fresh
// result store, the way `itlbtables -cache` or a first itlbd run would.
func populate(ctx context.Context, cfg config, in *serveInputs, backing func(*store.Store) exp.Backing) (*serveState, error) {
	dir, err := freshDir(cfg, "serve-store")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// Almost no two stored configurations share a warm-up, so the
	// warm-state pool would only hold a snapshot per configuration.
	r := &exp.Runner{
		Instructions: serveInstructions, Warmup: serveWarmup, Workers: callers,
		Backing: backing(st), DisableWarmFork: true,
	}
	opts := append([]sim.Options(nil), in.poolOpts...)
	for _, so := range in.sweepOps {
		opts = append(opts, so...)
	}
	opts = append(opts, exp.Cells(exp.Specs())...)
	if err := r.Prefetch(ctx, opts); err != nil {
		return nil, err
	}
	ss := &serveState{dir: dir, st: st, expected: map[string]sim.Result{}, tables: map[string]exp.Table{}, tally: newSimTally()}
	for _, o := range in.poolOpts {
		ss.keys = append(ss.keys, r.Key(o))
	}
	for _, so := range in.sweepOps {
		m := map[string]bool{}
		for _, o := range so {
			m[r.Key(o)] = true
		}
		ss.sweepKey = append(ss.sweepKey, m)
	}
	for _, o := range opts {
		k := r.Key(o)
		if _, seen := ss.expected[k]; seen {
			continue
		}
		res, ok := st.Get(k)
		if !ok {
			return nil, fmt.Errorf("configuration %s missing from the store after set-up", k)
		}
		ss.expected[k] = res
		ss.tally.add(&res)
	}
	for _, id := range in.tables {
		sp, err := exp.SpecByID(id)
		if err != nil {
			return nil, err
		}
		tb, err := sp.Generate(ctx, r)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(tb)
		if err != nil {
			return nil, err
		}
		var decoded exp.Table
		if err := json.Unmarshal(b, &decoded); err != nil {
			return nil, err
		}
		ss.tables[id] = decoded
	}
	return ss, nil
}

// serveReply is one operation's outcome, kept for the checks that run
// after the timed phase.
type serveReply struct {
	sim   server.SimResponse
	batch []server.BatchRecord
	table exp.Table
	err   error
	ms    float64
	rid   string
}

// runServe is a warm restart of itlbd: a result store holding every
// configuration the load asks for, and per repetition a fresh Runner and
// server over it (empty memo), driven by two closed-loop clients through a
// seeded mix of Zipf-popular /v1/sim requests, 12-job /v1/batch sweeps and
// GET /v1/tables. No request may simulate.
func runServe(ctx context.Context, cfg config, o *outcome) error {
	e2e, layer := newSamples(), newSamples()
	in, err := makeServeInputs(cfg.seed)
	if err != nil {
		return err
	}

	// Set-up, repeated: populate a fresh store, start the daemon over it.
	var ss *serveState
	var setups []float64
	for i := range serveSetups {
		putTimes := newSamples()
		backing := func(st *store.Store) exp.Backing { return st }
		if cfg.trace {
			backing = func(st *store.Store) exp.Backing { return &timedStore{st: st, s: putTimes} }
		}
		t0 := time.Now()
		next, err := populate(ctx, cfg, in, backing)
		if err != nil {
			return err
		}
		d, err := startDaemon(server.New(server.Config{Runner: &exp.Runner{Backing: next.st}}), nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := d.stop(); err != nil {
			return err
		}
		if cfg.trace {
			putFigures(putTimes, layer)
		}
		if ss != nil {
			if fp, prev := next.tally.fingerprint(), ss.tally.fingerprint(); fp != prev {
				o.problem("set-up %d simulated different counts:\n  was %s\n  now %s", i, prev, fp)
			}
			os.RemoveAll(ss.dir)
		}
		ss = next
	}
	defer os.RemoveAll(ss.dir)
	o.values["setup_s"] = median(setups)
	ss.tally.record(layer)
	// The stored set is the same for every seed (the sweeps are drawn
	// from the product), so its counts have one committed value.
	o.note("serve fingerprint (set-up simulations): %s", ss.tally.fingerprint())
	checkExpected(o, "serve.fingerprint", ss.tally.fingerprint())

	spansWritten := false
	w, err := repeat(cfg, 3, func(rep int, on bool) (time.Duration, error) {
		var tr *tracer
		s := e2e
		if on {
			tr, s = newTracer(), layer
		}
		var backing exp.Backing = ss.st
		storeTimes := newSamples()
		if on {
			backing = &timedStore{st: ss.st, tr: tr, s: storeTimes}
		}
		r := &exp.Runner{Instructions: serveInstructions, Warmup: serveWarmup, Workers: callers, Backing: backing}
		handlerTimes := newSamples()
		d, err := startDaemon(server.New(server.Config{
			Runner: r, Store: ss.st, MaxConcurrent: callers, RequestTimeout: time.Minute,
		}), tr, handlerTimes)
		if err != nil {
			return 0, err
		}
		replies := make([]serveReply, len(in.ops))
		rt := readRuntime()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := d.clients[c]
				for i := c; i < len(in.ops); i += callers {
					op, rp := in.ops[i], &replies[i]
					cctx := ctx
					if tr != nil {
						rp.rid = fmt.Sprintf("r%d-%d", rep, i)
						cctx = withRequestID(ctx, rp.rid)
					}
					s0 := time.Now()
					var kind string
					switch op.kind {
					case opSim:
						kind = "sim"
						rp.sim, rp.err = cl.Sim(cctx, in.pool[op.idx])
					case opBatch:
						kind = "batch"
						rp.batch, rp.err = cl.BatchCollect(cctx, in.sweeps[op.idx])
					case opTable:
						kind = "table"
						rp.table, rp.err = cl.Table(cctx, in.tables[op.idx])
					}
					s1 := time.Now()
					rp.ms = ms(s1.Sub(s0))
					tr.record(-1, "client", kind, rp.rid, s0, s1)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		addRuntime(s, rt)

		// Checks and figures, outside the timed phase.
		// Latencies stay per repetition: pooling them over the run would
		// grow the heap that retained_heap_mb measures.
		delivered := 0.0
		var simMS, batchMS, tableMS, overheadMS []float64
		for i, op := range in.ops {
			rp := &replies[i]
			o.attempted++
			if rp.err != nil {
				o.failed++
				o.problem("rep %d op %d: %v", rep, i, rp.err)
				continue
			}
			switch op.kind {
			case opSim:
				simMS = append(simMS, rp.ms)
				delivered += serveInstructions + serveWarmup
				want := ss.keys[op.idx]
				if rp.sim.Key != want || !reflect.DeepEqual(rp.sim.Result, ss.expected[want]) {
					o.problem("rep %d op %d: /v1/sim served %s, not the stored result for %s", rep, i, rp.sim.Key, want)
				}
				if d.timer != nil {
					if h, ok := d.timer.handlerMS(rp.rid); ok {
						overheadMS = append(overheadMS, rp.ms-h)
					}
				}
			case opBatch:
				batchMS = append(batchMS, rp.ms)
				delivered += float64(len(rp.batch)) * (serveInstructions + serveWarmup)
				want := ss.sweepKey[op.idx]
				seen := map[string]bool{}
				for _, rec := range rp.batch {
					if rec.Error != "" || rec.Result == nil || !want[rec.Key] ||
						!reflect.DeepEqual(*rec.Result, ss.expected[rec.Key]) {
						o.problem("rep %d op %d: batch record %d (%s) is not the stored result", rep, i, rec.Index, rec.Key)
					}
					seen[rec.Key] = true
				}
				if len(rp.batch) != 12 || len(seen) != len(want) {
					o.problem("rep %d op %d: batch streamed %d records for %d configurations", rep, i, len(rp.batch), len(want))
				}
			case opTable:
				tableMS = append(tableMS, rp.ms)
				if !reflect.DeepEqual(rp.table, ss.tables[in.tables[op.idx]]) {
					o.problem("rep %d op %d: table %s differs from the set-up rendering", rep, i, in.tables[op.idx])
				}
			}
		}
		st := r.Stats()
		if st.Runs != 0 {
			o.problem("rep %d: the timed phase ran %d simulations (want 0)", rep, st.Runs)
		}
		s.add("inst_per_s", delivered/wall.Seconds())
		// Percentiles per repetition (over 3200 requests, so p99 has 32
		// beyond it), reduced over repetitions like every end-to-end timing
		// (see finish).
		s.add("sim_p50_ms", percentile(simMS, 50))
		s.add("sim_p90_ms", percentile(simMS, 90))
		s.add("client.sim_p99_ms", percentile(simMS, 99))
		s.add("client.batch_p50_ms", percentile(batchMS, 50))
		s.add("client.table_p50_ms", percentile(tableMS, 50))
		if len(overheadMS) > 0 {
			s.add("client.overhead_ms", percentile(overheadMS, 50))
		}
		err = d.stop()
		s.add("retained_heap_mb", retainedHeapMB())
		runtime.KeepAlive(d) // the stopped server and its Runner's memo count as retained
		runnerFigures(s, st)
		if on {
			handlerFigures(handlerTimes, s)
			getFigures(storeTimes, s)
			for l, v := range tr.selfTimes() {
				s.add("span."+l+".self_s", v)
			}
			if !spansWritten {
				spansWritten = true
				if werr := tr.write(filepath.Join(cfg.work, "spans", fmt.Sprintf("serve-seed%d.jsonl", cfg.seed))); werr != nil {
					o.note("spans not written: %v", werr)
				}
			}
		}
		return wall, err
	})
	if err != nil {
		return err
	}
	o.note("serve latency, median over untraced repetitions of %d /v1/sim, %d batch and %d table requests each: "+
		"/v1/sim p50 %.4f p90 %.4f p99 %.4f ms, batch p50 %.4f ms, table p50 %.4f ms",
		serveOps-serveBatches-serveTables, serveBatches, serveTables,
		e2e.median("sim_p50_ms"), e2e.median("sim_p90_ms"), e2e.median("client.sim_p99_ms"),
		e2e.median("client.batch_p50_ms"), e2e.median("client.table_p50_ms"))
	o.note("serve: %d repetitions of %d requests (%d untraced, %d traced); store holds %d results",
		len(w.untraced)+len(w.traced), len(in.ops), len(w.untraced), len(w.traced), len(ss.expected))
	finish(o, e2e, layer, w)
	return nil
}

// runnerFigures records the Runner's counters for one repetition.
func runnerFigures(s *samples, st exp.Stats) {
	s.add("exp.runs", float64(st.Runs))
	s.add("exp.memo_hits", float64(st.MemoHits))
	s.add("exp.backing_hits", float64(st.BackingHits))
	s.add("exp.coalesced", float64(st.Coalesced))
	if lookups := st.Runs + st.MemoHits + st.BackingHits; lookups > 0 {
		s.add("exp.memo_hit_ratio", float64(st.MemoHits)/float64(lookups))
	}
	s.add("sim.warmups", float64(st.Warm.Warmups))
	s.add("sim.warm_hits", float64(st.Warm.Hits))
	s.add("sim.warm_entries", float64(st.Warm.Entries))
}
