package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/exp"
	"itlbcfr/internal/server"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/trace"
)

// The ingest workload's shape: distinct synthesized traces per repetition,
// each uploaded once and simulated once. Every scheme × style pair is
// simulated six times per repetition, on traces of different code
// footprints, so seeds vary the trace content but not the mix. 108 sims
// give a repetition's p90 eleven samples beyond it.
const (
	ingestTraces       = 108 // 6 × 6 schemes × 3 styles
	ingestTraceLen     = 100_000
	ingestInstructions = 200_000
	ingestWarmup       = 50_000
	ingestSetups       = 11
)

// ingestTrace is one synthesized input: its canonical bytes, the content
// address the server must file it under, and how it is simulated.
type ingestTrace struct {
	body   []byte
	key    string
	scheme core.Scheme
	style  cache.Style
}

// synthTraces builds the repetition's inputs from the seed. The shapes are
// fixed — shape p pairs scheme × style p mod 18 with a trace of 8 + p/12
// functions, code footprints from 8 to 16 functions — and the seed decides
// each trace's content and the order the shapes are dealt to the clients.
func synthTraces(seed uint64, tr *tracer) ([]ingestTrace, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	shapes := rng.Perm(ingestTraces)
	out := make([]ingestTrace, ingestTraces)
	for j := range out {
		var buf bytes.Buffer
		t0 := time.Now()
		if _, err := trace.SynthesizeTo(&buf, trace.SynthConfig{
			Seed:         seed<<16 | uint64(j),
			Instructions: ingestTraceLen,
			Functions:    8 + shapes[j]/12,
		}); err != nil {
			return nil, err
		}
		tr.record(-1, "trace", "synthesize", "", t0, time.Now())
		sum := sha256.Sum256(buf.Bytes())
		pair := shapes[j] % (len(schemeNames) * len(styleNames))
		out[j] = ingestTrace{
			body:   buf.Bytes(),
			key:    fmt.Sprintf("t%d-%x", trace.SchemaVersion, sum),
			scheme: core.Schemes()[pair/len(styleNames)],
			style:  cache.Style(pair % len(styleNames)),
		}
	}
	return out, nil
}

// ingestReply is one trace's outcome, checked after the timed phase.
type ingestReply struct {
	info             server.TraceInfo
	sim              server.SimResponse
	err              error
	uploadMS, simMS  float64
	uploadID, simRID string
}

// runIngest is the cold trace path with writes: per repetition a daemon
// whose result store and trace store start empty, and two closed-loop
// clients that each upload new traces (POST /v1/traces) and simulate
// each one (/v1/sim: replay from the trace store, warm-up, measurement,
// result-store write).
func runIngest(ctx context.Context, cfg config, o *outcome) error {
	e2e, layer := newSamples(), newSamples()

	// Set-up, repeated: synthesize the traces, start a daemon.
	var traces []ingestTrace
	var setups []float64
	setupSpans := newTracer()
	for range ingestSetups {
		t0 := time.Now()
		var err error
		if traces, err = synthTraces(cfg.seed, setupSpans); err != nil {
			return err
		}
		synth := time.Since(t0).Seconds()
		d, dir, err := startIngestDaemon(cfg, nil, nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		layer.add("trace.synth_s", synth)
		err = d.stop()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	o.values["setup_s"] = median(setups)
	layer.add("span.trace.self_s", setupSpans.selfTimes()["trace"]/ingestSetups)
	var traceBytes float64
	for _, t := range traces {
		traceBytes += float64(len(t.body))
	}

	lat := map[bool]*samples{false: newSamples(), true: newSamples()}
	var firstCounts string
	spansWritten := false
	w, err := repeat(cfg, 3, func(rep int, on bool) (time.Duration, error) {
		var tr *tracer
		s := e2e
		if on {
			tr, s = newTracer(), layer
		}
		lt := lat[on]
		storeTimes, handlerTimes := newSamples(), newSamples()
		d, dir, err := startIngestDaemon(cfg, tr, storeTimes, handlerTimes)
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		replies := make([]ingestReply, len(traces))
		rt := readRuntime()
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := d.clients[c]
				for j := c; j < len(traces); j += callers {
					t, rp := &traces[j], &replies[j]
					rp.uploadID, rp.simRID = fmt.Sprintf("r%d-%d-up", rep, j), fmt.Sprintf("r%d-%d-sim", rep, j)
					s0 := time.Now()
					rp.info, rp.err = cl.UploadTrace(withRequestID(ctx, rp.uploadID), bytes.NewReader(t.body), "")
					s1 := time.Now()
					tr.record(-1, "client", "upload", rp.uploadID, s0, s1)
					rp.uploadMS = ms(s1.Sub(s0))
					if rp.err != nil {
						continue
					}
					rp.sim, rp.err = cl.Sim(withRequestID(ctx, rp.simRID), server.SimRequest{
						Bench: rp.info.Bench, Scheme: t.scheme.String(), Style: t.style.String(),
						Instructions: ingestInstructions, Warmup: ingestWarmup,
					})
					s2 := time.Now()
					tr.record(-1, "client", "sim", rp.simRID, s1, s2)
					rp.simMS = ms(s2.Sub(s1))
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		addRuntime(s, rt)

		// Checks and figures, outside the timed phase.
		tally := newSimTally()
		keyer := &exp.Runner{}
		var simMS []float64
		for j, rp := range replies {
			t := &traces[j]
			o.attempted += 2
			if rp.err != nil {
				o.failed++
				o.problem("rep %d trace %d: %v", rep, j, rp.err)
				continue
			}
			lt.add("upload", rp.uploadMS)
			lt.add("sim", rp.simMS)
			simMS = append(simMS, rp.simMS)
			if rp.info.Key != t.key || rp.info.Deduped {
				o.problem("rep %d trace %d: upload filed under %s (deduped=%v), want new key %s", rep, j, rp.info.Key, rp.info.Deduped, t.key)
			}
			want := keyer.Key(sim.Options{
				Trace: &sim.TraceRef{Key: t.key}, Scheme: t.scheme, Style: t.style,
				Instructions: ingestInstructions, Warmup: ingestWarmup,
			})
			res := rp.sim.Result
			if rp.sim.Key != want || res.Bench != "trace:"+t.key || res.Committed != ingestInstructions {
				o.problem("rep %d trace %d: sim %s committed %d of %s, want %d of trace:%s under %s",
					rep, j, rp.sim.Key, res.Committed, res.Bench, uint64(ingestInstructions), t.key, want)
			}
			tally.add(&res)
			if d.timer != nil {
				if h, ok := d.timer.handlerMS(rp.simRID); ok {
					lt.add("overhead", rp.simMS-h)
				}
			}
		}
		s.add("inst_per_s", float64(len(traces))*(ingestInstructions+ingestWarmup)/wall.Seconds())
		s.add("sim_p50_ms", percentile(simMS, 50))
		s.add("sim_p90_ms", percentile(simMS, 90))
		st := d.runner.Stats()
		err = d.stop()
		s.add("retained_heap_mb", retainedHeapMB())
		runtime.KeepAlive(d) // the stopped server and its Runner count as retained
		if fp := tally.fingerprint(); rep == 0 {
			firstCounts = fp
			o.note("ingest fingerprint: %s", fp)
		} else if fp != firstCounts {
			o.problem("repetition %d simulated different counts:\n  rep 0: %s\n  rep %d: %s", rep, firstCounts, rep, fp)
		}
		tally.record(s)
		runnerFigures(s, st)
		if on {
			s.add("trace.bytes_uploaded", traceBytes)
			handlerFigures(handlerTimes, s)
			getFigures(storeTimes, s)
			putFigures(storeTimes, s)
			for l, v := range tr.selfTimes() {
				s.add("span."+l+".self_s", v)
			}
			if !spansWritten {
				spansWritten = true
				if werr := tr.write(filepath.Join(cfg.work, "spans", fmt.Sprintf("ingest-seed%d.jsonl", cfg.seed))); werr != nil {
					o.note("spans not written: %v", werr)
				}
			}
		}
		return wall, err
	})
	if err != nil {
		return err
	}
	o.values["client.upload_p50_ms"] = lat[true].pct("upload", 50)
	o.values["client.sim_p99_ms"] = lat[true].pct("sim", 99)
	o.values["client.overhead_ms"] = lat[true].pct("overhead", 50)
	for _, k := range []string{"upload", "sim"} {
		o.note("ingest %s latency (untraced): p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d samples", k,
			lat[false].pct(k, 50), lat[false].pct(k, 90), lat[false].pct(k, 99), lat[false].count(k))
	}
	o.note("ingest: %d repetitions of %d traces (%d untraced, %d traced), %.0f KB of traces each",
		len(w.untraced)+len(w.traced), len(traces), len(w.untraced), len(w.traced), traceBytes/1024)
	checkFingerprint(cfg, o, fmt.Sprintf("ingest-seed%d", cfg.seed), firstCounts)
	finish(o, e2e, layer, w)
	return nil
}

// ingestDaemon is a daemon with the Runner behind it.
type ingestDaemon struct {
	*daemon
	runner *exp.Runner
}

// startIngestDaemon starts a daemon over an empty result store and an
// empty trace store in a fresh work directory, which the caller removes.
func startIngestDaemon(cfg config, tr *tracer, storeTimes, handlerTimes *samples) (*ingestDaemon, string, error) {
	dir, err := freshDir(cfg, "ingest")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return nil, dir, err
	}
	ts, err := trace.OpenStore(filepath.Join(dir, "traces"))
	if err != nil {
		return nil, dir, err
	}
	var backing exp.Backing = st
	if tr != nil {
		backing = &timedStore{st: st, tr: tr, s: storeTimes}
	}
	r := &exp.Runner{Workers: callers, Backing: backing}
	d, err := startDaemon(server.New(server.Config{
		Runner: r, Store: st, Traces: ts, MaxConcurrent: callers, RequestTimeout: time.Minute,
	}), tr, handlerTimes)
	if err != nil {
		return nil, dir, err
	}
	return &ingestDaemon{daemon: d, runner: r}, dir, nil
}
