package store

import (
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/tlb"
	"itlbcfr/internal/workload"
)

// TestKeyFixture pins the literal store keys of a handful of
// configurations. Every disk store and every client that cached an s1- key
// depends on these bytes: a change to the canonicalization or to the key
// encoding that moves any of them must bump SchemaVersion instead.
func TestKeyFixture(t *testing.T) {
	pipe := sim.DefaultPipeline()
	pipe.FetchWidth = 8
	for _, c := range []struct {
		name string
		opt  sim.Options
		want string
	}{
		{
			name: "default-mesa",
			opt:  sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT},
			want: "s1-5885334ffb32032099c954f3ce8d6b79c89dc261cc8c64d2ecd66f075b67cbe9",
		},
		{
			name: "ia-vivt-custom-length",
			opt: sim.Options{Profile: workload.Vortex(), Scheme: core.IA, Style: cache.VIVT,
				Instructions: 500_000, Warmup: 50_000},
			want: "s1-3a1f80d00bdd9f4721c483cebc5720805b8b100d2a2cc7cff91316faf1b9792e",
		},
		{
			name: "two-level-itlb-8k-pages",
			opt: sim.Options{Profile: workload.Gap(), Scheme: core.SoLA, Style: cache.PIPT,
				ITLB: tlb.TwoLevel(1, 1, 32, 32, false), PageBytes: 8192},
			want: "s1-55c65d48710ff88dcc7be7f83011a15028358c7da98a9b26d9248d0f039fb2ea",
		},
		{
			name: "pipeline-and-tech-override",
			opt: sim.Options{Profile: workload.Crafty(), Scheme: core.HoA, Style: cache.VIPT,
				Pipeline: &pipe, Tech: &energy.Tech{FeatureNm: 70}},
			want: "s1-74bbc25072cc98fce1e4bb0f86f89f085b5795d8ea6a75d612964aad5b5980cb",
		},
		{
			name: "trace-with-leftover-profile",
			opt: sim.Options{Profile: workload.Eon(), Scheme: core.OPT, Style: cache.VIPT,
				Trace: &sim.TraceRef{Key: "t1-0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}},
			want: "s1-4a02ff336b4cfbdd56427134bffd97af3231377823088729ae77629ad2233832",
		},
	} {
		if got := Key(c.opt); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
