package exp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func renderSpec(t *testing.T, r *Runner, s Spec) []byte {
	t.Helper()
	tb, err := s.Generate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteTables(&b, FormatText, []Table{tb}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWarmRegeneration is the store's acceptance contract: a second
// regeneration against a warm cache runs zero simulations, renders
// byte-identical output to both the cold cached run and a cacheless run,
// and is at least 10x faster than cold.
func TestWarmRegeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("timed regeneration in -short mode")
	}
	const n, warm = 500_000, 100_000
	spec := Table2Spec()
	st := openStore(t)

	plain := renderSpec(t, NewRunner(n, warm), spec)

	cold := NewRunner(n, warm)
	cold.Backing = st
	t0 := time.Now()
	coldOut := renderSpec(t, cold, spec)
	coldWall := time.Since(t0)
	if cold.Runs() == 0 {
		t.Fatal("cold run executed no simulations")
	}

	warmR := NewRunner(n, warm)
	warmR.Backing = st
	t1 := time.Now()
	warmOut := renderSpec(t, warmR, spec)
	warmWall := time.Since(t1)

	if warmR.Runs() != 0 {
		t.Errorf("warm regeneration executed %d simulations, want 0", warmR.Runs())
	}
	if s := warmR.Stats(); s.BackingHits != cold.Runs() {
		t.Errorf("warm run had %d backing hits, want %d", s.BackingHits, cold.Runs())
	}
	if !bytes.Equal(coldOut, warmOut) {
		t.Error("warm output differs from cold output")
	}
	if !bytes.Equal(plain, warmOut) {
		t.Error("cached output differs from cacheless output")
	}
	if warmWall*10 > coldWall {
		t.Errorf("warm regeneration not >=10x faster: cold %v, warm %v", coldWall, warmWall)
	}
}

// failingBacking misses every Get and fails every Put.
type failingBacking struct{}

func (failingBacking) Get(string) (sim.Result, bool) { return sim.Result{}, false }
func (failingBacking) Put(string, sim.Result) error  { return errors.New("backing broken") }

// TestBackingFailureDegrades: a broken backing store costs reuse, never
// correctness — lookups compute and no error reaches the caller.
func TestBackingFailureDegrades(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	r.Backing = failingBacking{}
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	res, err := r.Result(context.Background(), opt)
	if err != nil {
		t.Fatalf("broken backing leaked an error: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("broken backing produced an empty result")
	}
	if s := r.Stats(); s.PutErrors != 1 || s.Runs != 1 {
		t.Errorf("stats = %+v, want 1 run and 1 put error", s)
	}
	// Prefetch path degrades identically.
	if err := r.Prefetch(context.Background(), Table5Spec().Cells()); err != nil {
		t.Fatalf("Prefetch with broken backing: %v", err)
	}
}

// TestKeyUnification: the memo, the store and the key derivation agree on
// one canonicalization — every spelling of the default configuration shares
// a single simulation and a single disk entry.
func TestKeyUnification(t *testing.T) {
	st := openStore(t)
	r := NewRunner(20_000, 5_000)
	r.Backing = st

	pcfg := sim.DefaultPipeline()
	pcfg.IL1Style = cache.PIPT // overwritten by Style in sim.Run; must not split keys
	tech := energy.DefaultTech
	spellings := []sim.Options{
		{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT},
		{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT,
			ITLB: sim.DefaultITLB(), PageBytes: 4096, Pipeline: &pcfg, Tech: &tech,
			Instructions: 20_000, Warmup: 5_000},
	}
	for _, o := range spellings {
		r.Result(context.Background(), o)
	}
	if r.Runs() != 1 {
		t.Errorf("default spellings ran %d simulations, want 1", r.Runs())
	}
	if s := st.Stats(); s.Puts != 1 {
		t.Errorf("default spellings wrote %d disk entries, want 1", s.Puts)
	}
}

// TestRunnerBatch: the memo-aware batch coalesces duplicates, serves the
// backing store, and aligns errors with inputs.
func TestRunnerBatch(t *testing.T) {
	st := openStore(t)
	r := NewRunner(20_000, 5_000)
	r.Backing = st

	good := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	bad := good
	bad.Scheme = core.IA
	bad.PageBytes = 3000 // not a power of two: fails validation, not the pool

	jobs := []sim.Options{good, good, bad}
	results, errs := r.Batch(context.Background(), jobs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("good jobs failed: %v %v", errs[0], errs[1])
	}
	if errs[2] == nil {
		t.Fatal("invalid job did not error")
	}
	if results[0].Cycles != results[1].Cycles {
		t.Error("duplicate jobs returned different results")
	}
	if r.Runs() != 1 {
		t.Errorf("batch ran %d simulations, want 1 (duplicates coalesce)", r.Runs())
	}

	// A second batch in a fresh runner is served entirely from disk.
	r2 := NewRunner(20_000, 5_000)
	r2.Backing = st
	_, errs2 := r2.Batch(context.Background(), []sim.Options{good})
	if errs2[0] != nil {
		t.Fatal(errs2[0])
	}
	if r2.Runs() != 0 {
		t.Errorf("warm batch ran %d simulations, want 0", r2.Runs())
	}
}

// TestResultCanceled: waiting on someone else's in-flight simulation
// respects the caller's context.
func TestResultCanceled(t *testing.T) {
	r := NewRunner(200_000, 50_000)
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	started := make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		close(started)
		_, err := r.Result(context.Background(), opt) // owner; runs to completion
		owner <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := r.Result(ctx, opt)
	if oerr := <-owner; oerr != nil {
		t.Errorf("owner: %v", oerr)
	}
	if err == nil {
		// The owner may already have finished on a fast machine; only a
		// memo hit justifies nil here.
		if r.Stats().MemoHits == 0 {
			t.Error("canceled wait returned nil error without a memo hit")
		}
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

// blockingBacking is a Backing that misses every Get; its first Get closes
// entered and then blocks until release is closed.
type blockingBacking struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBacking) Get(string) (sim.Result, bool) {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return sim.Result{}, false
}

func (b *blockingBacking) Put(string, sim.Result) error { return nil }

// TestBatchRetriesOtherCallersFailure: a Batch waiting on an entry that
// another caller owns, and then settles with its own context's error, must
// re-claim the configuration and return the result, not the other caller's
// error.
func TestBatchRetriesOtherCallersFailure(t *testing.T) {
	bk := &blockingBacking{entered: make(chan struct{}), release: make(chan struct{})}
	r := NewRunner(20_000, 5_000)
	r.Backing = bk
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}

	ctxA, cancelA := context.WithCancel(context.Background())
	owner := make(chan error, 1)
	go func() {
		_, err := r.Result(ctxA, opt)
		owner <- err
	}()
	<-bk.entered // the owner holds the claim and is inside Backing.Get
	cancelA()

	type batchOut struct {
		results []sim.Result
		errs    []error
	}
	done := make(chan batchOut, 1)
	go func() {
		results, errs := r.Batch(context.Background(), []sim.Options{opt})
		done <- batchOut{results, errs}
	}()
	for r.Stats().Coalesced != 1 { // the Batch is waiting on the owner's entry
		runtime.Gosched()
	}
	close(bk.release)

	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Errorf("owner: err = %v, want context.Canceled", err)
	}
	got := <-done
	if got.errs[0] != nil {
		t.Fatalf("Batch returned %v, want the result", got.errs[0])
	}
	if got.results[0].Committed == 0 {
		t.Error("Batch returned an empty result")
	}
	if r.Runs() != 1 {
		t.Errorf("Runs() = %d, want 1", r.Runs())
	}
}
