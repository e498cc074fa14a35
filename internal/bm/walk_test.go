package bm_test

import (
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// table3Specs compiles every component of the four Table 3 designs in
// both arms: as designed, and clustered with core.Optimize.
func table3Specs(tb testing.TB) []*bm.Spec {
	tb.Helper()
	var specs []*bm.Spec
	for _, d := range designs.All() {
		opt, _, err := core.Optimize(d.Control())
		if err != nil {
			tb.Fatalf("%s: clustering: %v", d.Name, err)
		}
		for _, n := range []*core.Netlist{d.Control(), opt} {
			for _, c := range n.Components {
				sp, err := chtobm.Compile(c)
				if err != nil {
					tb.Fatalf("%s/%s: %v", d.Name, c.Name, err)
				}
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

var walkSink []bm.Violation

// TestViolationsAllocBudget bounds the allocations of one walk over a
// clean spec: the signal index and two flat scratch buffers, whatever
// the spec's state, arc and signal counts.
func TestViolationsAllocBudget(t *testing.T) {
	const budget = 12
	worst := 0.0
	for _, sp := range table3Specs(t) {
		allocs := testing.AllocsPerRun(20, func() { walkSink = sp.Violations() })
		if allocs > budget {
			t.Errorf("%s (%d states, %d arcs): %.0f allocations per walk, budget %d",
				sp.Name, sp.NStates, len(sp.Arcs), allocs, budget)
		}
		worst = max(worst, allocs)
	}
	t.Logf("at most %.0f allocations per walk", worst)
}

// BenchmarkSpecWalk runs Violations over every compiled Table 3 spec,
// both arms, per op.
func BenchmarkSpecWalk(b *testing.B) {
	specs := table3Specs(b)
	states := 0
	for _, sp := range specs {
		states += sp.NStates
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			walkSink = sp.Violations()
		}
	}
	b.ReportMetric(float64(len(specs)), "specs/op")
	b.ReportMetric(float64(states), "states/op")
}
