package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/workload"
)

func testRunner() *Runner { return NewRunner(60_000, 20_000) }

// generate is Spec.Generate with the error checked.
func generate(t *testing.T, s Spec, r *Runner) Table {
	t.Helper()
	tb, err := s.Generate(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTable1Static(t *testing.T) {
	tb := generate(t, Table1Spec(), nil)
	if len(tb.Rows) < 10 {
		t.Fatalf("Table 1 too short: %d rows", len(tb.Rows))
	}
	s := tb.Render()
	for _, want := range []string{"RUU", "iTLB", "Bimodal", "7 cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration in -short mode")
	}
	r := testRunner()
	tables, err := All(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		s := tb.Render()
		if len(s) < 50 {
			t.Errorf("%s renders suspiciously short output", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
			}
		}
	}
	if r.Runs() == 0 {
		t.Error("no simulations ran")
	}
}

// TestParallelDeterminism is the engine's contract: a parallel regeneration
// of every table must be byte-identical to a serial one (each simulation
// seeds its own RNG, so execution order cannot leak into results).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full double regeneration in -short mode")
	}
	render := func(workers int) string {
		r := NewRunner(30_000, 10_000)
		r.Workers = workers
		tables, err := All(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteTables(&b, FormatText, tables); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(runtime.NumCPU())
	if serial != parallel {
		t.Fatalf("parallel regeneration differs from serial (lengths %d vs %d)",
			len(serial), len(parallel))
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := testRunner()
	generate(t, Table5Spec(), r)
	n := r.Runs()
	generate(t, Table5Spec(), r)
	if r.Runs() != n {
		t.Error("repeated generation must not re-simulate")
	}
	// Table 2 shares the base VI-PT runs with Table 5.
	generate(t, Table2Spec(), r)
	if r.Runs() != n+6 { // only the six VI-VT base runs are new
		t.Errorf("Table 2 after Table 5 should add 6 runs, added %d", r.Runs()-n)
	}
}

func TestZeroValueRunner(t *testing.T) {
	var r Runner // nil cache must lazily initialize, not panic
	opt := sim.Options{
		Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT,
		Instructions: 5_000, Warmup: 1,
	}
	res := r.Get(opt)
	if res.Committed == 0 {
		t.Error("zero-value Runner returned an empty result")
	}
	if r.Runs() != 1 {
		t.Errorf("Runs() = %d, want 1", r.Runs())
	}
	r.Get(opt)
	if r.Runs() != 1 {
		t.Error("zero-value Runner did not memoize")
	}
}

// TestGetCoalesces checks that concurrent Gets for the same configuration
// share one simulation instead of racing to run it N times.
func TestGetCoalesces(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	var wg sync.WaitGroup
	results := make([]sim.Result, 8)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = r.Get(opt)
		}()
	}
	wg.Wait()
	if r.Runs() != 1 {
		t.Errorf("8 concurrent Gets ran %d simulations, want 1", r.Runs())
	}
	for i, res := range results {
		if res.Cycles != results[0].Cycles {
			t.Errorf("goroutine %d saw a different result", i)
		}
	}
}

func TestPrefetchWarmsMemo(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	spec := Table5Spec()
	if err := r.Prefetch(context.Background(), spec.Cells()); err != nil {
		t.Fatal(err)
	}
	n := r.Runs()
	if n == 0 {
		t.Fatal("Prefetch ran no simulations")
	}
	generate(t, Table5Spec(), r)
	if r.Runs() != n {
		t.Errorf("Table 5 after Prefetch re-simulated: %d -> %d runs", n, r.Runs())
	}
}

// TestPrefetchCanceled checks that a canceled prefetch reports the context
// error, releases its claims, and leaves the Runner usable.
func TestPrefetchCanceled(t *testing.T) {
	r := NewRunner(20_000, 5_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	if err := r.Prefetch(ctx, []sim.Options{opt}); err == nil {
		t.Fatal("canceled Prefetch returned nil error")
	}
	if r.Runs() != 0 {
		t.Errorf("canceled Prefetch executed %d simulations", r.Runs())
	}
	// The claim must have been released: a fresh Get re-runs serially.
	if res := r.Get(opt); res.Committed == 0 {
		t.Error("Get after canceled Prefetch returned an empty result")
	}
}

func TestByID(t *testing.T) {
	r := testRunner()
	ctx := context.Background()
	for _, id := range []string{"1", "5", "figure5"} {
		tb, err := ByID(ctx, r, id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		if tb.ID == "" {
			t.Errorf("ByID(%s) returned empty table", id)
		}
	}
	if _, err := ByID(ctx, r, "nonesuch"); err == nil {
		t.Error("unknown ID should error")
	}
	if len(IDs()) < 12 {
		t.Errorf("IDs() = %v", IDs())
	}
	for _, id := range IDs() {
		if _, err := SpecByID(id); err != nil {
			t.Errorf("IDs() lists %q but SpecByID rejects it: %v", id, err)
		}
	}
}

func TestSpecCellsCoverRows(t *testing.T) {
	// Every spec's Rows must only consume simulations its Axes declared:
	// after a prefetch, formatting must not add runs.
	r := NewRunner(20_000, 5_000)
	ctx := context.Background()
	for _, s := range Specs() {
		if err := r.Prefetch(ctx, s.Cells()); err != nil {
			t.Fatalf("%s: prefetch: %v", s.ID, err)
		}
		n := r.Runs()
		if _, err := s.Generate(ctx, r); err != nil {
			t.Fatalf("%s: generate: %v", s.ID, err)
		}
		if r.Runs() != n {
			t.Errorf("%s: Rows ran %d simulations not declared in Axes", s.ID, r.Runs()-n)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tb := Table{
		ID: "X", Title: "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"lonnng", "1"}},
		Notes:   []string{"n"},
	}
	s := tb.Render()
	if !strings.Contains(s, "lonnng") || !strings.Contains(s, "note: n") {
		t.Errorf("render missing content:\n%s", s)
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"text": FormatText, "": FormatText, "JSON": FormatJSON, "csv": FormatCSV,
	} {
		f, err := ParseFormat(s)
		if err != nil || f != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", s, f, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("ParseFormat should reject unknown formats")
	}
}

func TestWriteTablesFormats(t *testing.T) {
	tables := []Table{
		{ID: "T", Title: "title", Columns: []string{"a", "b"},
			Rows: [][]string{{"x", "1"}, {"y, z", "2"}}, Notes: []string{"caveat"}},
		{ID: "U", Title: "other", Columns: []string{"c"}, Rows: [][]string{{"w"}}},
	}

	var txt bytes.Buffer
	if err := WriteTables(&txt, FormatText, tables); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "T — title") || !strings.Contains(txt.String(), "note: caveat") {
		t.Errorf("text output missing content:\n%s", txt.String())
	}

	var js bytes.Buffer
	if err := WriteTables(&js, FormatJSON, tables); err != nil {
		t.Fatal(err)
	}
	var decoded []Table
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(decoded) != 2 || decoded[0].ID != "T" || decoded[0].Rows[1][0] != "y, z" {
		t.Errorf("JSON round-trip mangled tables: %+v", decoded)
	}

	var cs bytes.Buffer
	if err := WriteTables(&cs, FormatCSV, tables); err != nil {
		t.Fatal(err)
	}
	out := cs.String()
	for _, want := range []string{"# T — title", "a,b", "\"y, z\",2", "# note: caveat", "# U — other"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV output missing %q:\n%s", want, out)
		}
	}
}
