package hazver_test

import (
	"fmt"
	"os"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/bmlint"
	"balsabm/internal/cell"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/hazver"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// Inputs larger than these are skipped, so that one input synthesizes
// in milliseconds: minimalist has no work budget yet. Every Table 3
// spec fits (at most 18 states and 18 signals).
const (
	fuzzMaxBytes   = 2048
	fuzzMaxStates  = 20
	fuzzMaxSignals = 20
)

// FuzzBMSynth feeds .bms text down the path the .bms form of balsabm
// artifacts takes and holds hazver to the sampling audit it replaced
// there. bmlint must report an error for every text that fails
// bm.Parse or Check, the conditions the flow's bmlint gate stands in
// for. A well-formed spec that minimalist synthesizes is mapped in
// both modes:
//   - the speed-split netlist must pass hazver with no error, on the
//     compiled and the interpreted path alike, and techmap.CheckMapped
//     must pass it too;
//   - the area-shared netlist must map and be netlint-error-free.
//     hazver does not check it: the shared mapping can turn a function
//     into a buffer of another function's C-element-driven net, which
//     hazver, holding that net at its current value, rejects.
//
// Seeds: cmd/balsabm/testdata/pulse.bms, whose never-toggled output
// maps to the tied-low net, and the compiled spec of every component
// of the Table 3 designs, both arms.
func FuzzBMSynth(f *testing.F) {
	pulse, err := os.ReadFile("../../cmd/balsabm/testdata/pulse.bms")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(pulse))
	for _, d := range designs.All() {
		n := d.Control()
		opt, _, err := core.Optimize(n)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range append(n.Components, opt.Components...) {
			sp, err := chtobm.Compile(c)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(sp.String())
		}
	}
	lib := cell.AMS035()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzMaxBytes {
			t.Skip()
		}
		lint := bmlint.LintSource(src)
		sp, err := bm.Parse(src)
		if err == nil {
			err = sp.Check()
		}
		if err != nil {
			if !bmlint.HasErrors(lint.Diags) {
				t.Fatalf("bmlint reports no error on an ill-formed spec (%v):\n%s", err, bmlint.Format(lint.Diags, lint.Name))
			}
			return
		}
		if sp.NStates > fuzzMaxStates || len(sp.Inputs)+len(sp.Outputs) > fuzzMaxSignals {
			t.Skip()
		}
		ctrl, err := minimalist.Synthesize(sp)
		if err != nil {
			return // a spec minimalist rejects has nothing to map
		}
		nl, err := techmap.MapController(ctrl, techmap.SpeedSplit, lib)
		if err != nil {
			t.Fatalf("speed-split mapping: %v", err)
		}
		units := []hazver.Unit{hazver.ControllerUnit(sp.Name, ctrl, nl)}
		res := hazver.Audit(sp.Name, units, lib, hazver.Options{})
		if hazver.HasErrors(res.Diags) {
			t.Fatalf("hazver rejects the speed-split mapping:\n%s", hazver.Format(res.Diags, res.Name))
		}
		interp := hazver.Audit(sp.Name, units, lib, hazver.Options{Interpreted: true})
		if res.Stats.Compiled {
			if got, want := findings(interp), findings(res); got != want {
				t.Fatalf("interpreted hazver disagrees with the compiled path:\n%s\nwant:\n%s", got, want)
			}
		}
		if err := techmap.CheckMapped(ctrl, nl, lib); err != nil {
			t.Fatalf("hazver passes the speed-split mapping, CheckMapped rejects it: %v", err)
		}
		area, err := techmap.MapController(ctrl, techmap.AreaShared, lib)
		if err != nil {
			t.Fatalf("area-shared mapping: %v", err)
		}
		if nr := netlint.Audit(area, lib); netlint.HasErrors(nr.Diags) {
			t.Fatalf("area-shared mapping fails netlint:\n%s", netlint.Format(nr.Diags, nr.Name))
		}
	})
}

// findings renders an audit's diagnostics and static report with the
// evaluation path masked, the part both paths must agree on.
func findings(res hazver.Result) string {
	st := res.Stats
	st.Compiled = false
	out := fmt.Sprintf("%+v\n", st)
	for _, d := range res.Diags {
		if d.Code != "HZ200" {
			out += d.Render(res.Name) + "\n"
		}
	}
	return out
}
