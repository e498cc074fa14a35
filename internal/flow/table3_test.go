package flow

import (
	"context"
	"strings"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// TestTable3Shape locks in the qualitative findings of the paper's
// Table 3: every design speeds up and pays an area overhead; the
// control-dominated systolic counter gains the most and the
// datapath-dominated microprocessor core the least.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-design flow")
	}
	results, err := RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d designs", len(results))
	}
	improvements := map[string]float64{}
	for _, r := range results {
		if r.SpeedImprovement() <= 0 {
			t.Errorf("%s: no speed improvement (%.2f%%)", r.Design, r.SpeedImprovement())
		}
		if r.AreaOverhead() <= 0 {
			t.Errorf("%s: no area overhead (%.2f%%) — optimized circuits must be larger", r.Design, r.AreaOverhead())
		}
		improvements[r.Design] = r.SpeedImprovement()
	}
	// Ordering: counter > wagging > stack > ssem (the paper's column).
	order := []string{"systolic-counter", "wagging-register", "stack", "ssem"}
	for i := 0; i+1 < len(order); i++ {
		if improvements[order[i]] <= improvements[order[i+1]] {
			t.Errorf("improvement ordering violated: %s (%.2f%%) <= %s (%.2f%%)",
				order[i], improvements[order[i]], order[i+1], improvements[order[i+1]])
		}
	}
	// Magnitudes in the paper's regime: single to low-double digits.
	for d, imp := range improvements {
		if imp > 60 {
			t.Errorf("%s: improvement %.2f%% is implausibly large", d, imp)
		}
	}
	// The table formats and contains every design row.
	table := Table3(results)
	for _, d := range order {
		if !strings.Contains(table, d) {
			t.Errorf("table missing %s:\n%s", d, table)
		}
	}
	if !strings.Contains(table, "Improvement") || !strings.Contains(table, "Overhead") {
		t.Errorf("table missing columns:\n%s", table)
	}
}

// TestTable3Exact asserts the acceptance bar of the packed-cube
// engine: with cheap enumeration nodes and the lifted budget, every
// controller of every Table 3 design minimizes through the exact
// covering path — no greedy fallback anywhere in the published rows.
// It also pins the minimizer's work at two worker counts: the prime
// enumeration's node total changes with any change to its traversal,
// and the covering step never needs to branch.
func TestTable3Exact(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-design flow")
	}
	for _, workers := range []int{1, 4} {
		var m Metrics
		results, err := RunAllCtx(context.Background(), &Options{Workers: workers, Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			for _, arm := range []struct {
				name string
				res  ArmResult
			}{{"unopt", r.Unopt}, {"opt", r.Opt}} {
				for _, c := range arm.res.Controllers {
					if !c.Exact {
						t.Errorf("-j %d: %s/%s: controller %s fell back to greedy minimization",
							workers, r.Design, arm.name, c.Name)
					}
				}
			}
		}
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"EnumNodes", m.EnumNodes.Load(), 160781},
			{"MinimizeExact", m.MinimizeExact.Load(), 104},
			{"MinimizeGreedy", m.MinimizeGreedy.Load(), 0},
			{"BranchNodes", m.BranchNodes.Load(), 0},
		} {
			if c.got != c.want {
				t.Errorf("-j %d: %s = %d, want %d", workers, c.name, c.got, c.want)
			}
		}
	}
}

// Both arms must produce identical external behavior: the benchmark's
// functional validation runs inside RunDesign for both, so a passing
// run already certifies functional equivalence on the benchmark; here
// we additionally check the event counts are nonzero and the optimized
// arm did not cheat by doing less work.
func TestBothArmsDoRealWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-design flow")
	}
	results, err := RunAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Unopt.Events == 0 || r.Opt.Events == 0 {
			t.Errorf("%s: zero simulation events (unopt %d, opt %d)", r.Design, r.Unopt.Events, r.Opt.Events)
		}
		if r.Unopt.DatapathArea != r.Opt.DatapathArea {
			t.Errorf("%s: datapath areas differ between arms: %.0f vs %.0f",
				r.Design, r.Unopt.DatapathArea, r.Opt.DatapathArea)
		}
	}
}

// TestComponentsCompileOnce: a Table 3 run compiles every component of
// both arms exactly once outside the clustering probes — the bmlint
// gate compiles, and synthesis takes the gate's spec — so the compile
// stage counts one run per component: 58 over the four designs (46 in
// the unopt arms, 12 in the opt arms). A second run on a warm
// controller cache, where no controller is synthesized, counts the
// same 58.
func TestComponentsCompileOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full four-design flow, twice")
	}
	want := int64(0)
	for _, d := range designs.All() {
		n := d.Control()
		opt, _, err := core.Optimize(n)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(n.Components) + len(opt.Components))
	}
	if want != 58 {
		t.Fatalf("the four designs have %d components over both arms, want 58", want)
	}
	ctl := NewMemoryControllerCache()
	for run := 1; run <= 2; run++ {
		met := &Metrics{}
		if _, err := RunAllCtx(context.Background(), &Options{Metrics: met, Controllers: ctl}); err != nil {
			t.Fatal(err)
		}
		if got := met.Timings.Snapshot()["compile"].Count; got != want {
			t.Errorf("run %d: compile stage counted %d runs, want %d", run, got, want)
		}
		if run == 2 && met.ControllersResynthesized.Load() != 0 {
			t.Errorf("run 2: %d controllers resynthesized on a warm cache", met.ControllersResynthesized.Load())
		}
	}
}
