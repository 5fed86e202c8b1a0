package sim_test

import (
	"reflect"
	"testing"

	"itlbcfr/internal/cache"
	"itlbcfr/internal/core"
	"itlbcfr/internal/energy"
	"itlbcfr/internal/sim"
	"itlbcfr/internal/store"
	"itlbcfr/internal/workload"
)

// optionMutations changes each sim.Options field, one entry per field, to a
// value that is not a spelling of the base configuration's default.
var optionMutations = map[string]func(*sim.Options){
	"Profile": func(o *sim.Options) { o.Profile = workload.Vortex() },
	"Scheme":  func(o *sim.Options) { o.Scheme = core.IA },
	"Style":   func(o *sim.Options) { o.Style = cache.VIVT },
	"ITLB": func(o *sim.Options) {
		o.ITLB = sim.DefaultITLB()
		o.ITLB.Levels[0].Entries = 64
		o.ITLB.Levels[0].Assoc = 64
	},
	"Trace": func(o *sim.Options) {
		o.Trace = &sim.TraceRef{Key: "t1-0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
	},
	"Instructions": func(o *sim.Options) { o.Instructions = 1 },
	"Warmup":       func(o *sim.Options) { o.Warmup = 1 },
	"PageBytes":    func(o *sim.Options) { o.PageBytes = 8192 },
	"Pipeline": func(o *sim.Options) {
		p := sim.DefaultPipeline()
		p.FetchWidth = 8
		o.Pipeline = &p
	},
	"Tech": func(o *sim.Options) { o.Tech = &energy.Tech{FeatureNm: 70} },
}

// warmKeyExclusions are the fields that cannot influence the warm-up: the
// measured length, and the energy technology (it only rescales joules).
var warmKeyExclusions = map[string]bool{"Instructions": true, "Tech": true}

// TestOptionMutationsCoverEveryField fails when sim.Options gains a field
// that optionMutations does not name, so a new configuration axis cannot
// slip past the key tests below.
func TestOptionMutationsCoverEveryField(t *testing.T) {
	typ := reflect.TypeOf(sim.Options{})
	fields := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if optionMutations[name] == nil {
			t.Errorf("sim.Options.%s has no entry in optionMutations", name)
		}
	}
	for name := range optionMutations {
		if !fields[name] {
			t.Errorf("optionMutations names %s, which sim.Options does not have", name)
		}
	}
	for name := range warmKeyExclusions {
		if !fields[name] {
			t.Errorf("warmKeyExclusions names %s, which sim.Options does not have", name)
		}
	}
}

// TestEveryFieldKeys: changing any one field changes the store key, and
// changes the warm key unless the field is a documented exclusion — in
// which case the warm key must stay put, so the runs share a warm-up.
func TestEveryFieldKeys(t *testing.T) {
	base := sim.Options{Profile: workload.Mesa(), Scheme: core.Base, Style: cache.VIPT}
	baseStore, baseWarm := store.Key(base), sim.WarmKey(base)
	for name, mutate := range optionMutations {
		o := base
		mutate(&o)
		if store.Key(o) == baseStore {
			t.Errorf("%s: change did not change the store key", name)
		}
		if warm := sim.WarmKey(o); warmKeyExclusions[name] {
			if warm != baseWarm {
				t.Errorf("%s: change moved the warm key; it is excluded", name)
			}
		} else if warm == baseWarm {
			t.Errorf("%s: change did not change the warm key", name)
		}
	}
}
