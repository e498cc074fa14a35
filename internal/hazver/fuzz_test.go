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
// both modes, and each mapping must compile and pass hazver with no
// error, with the interpreted oracle reporting the same findings.
// The speed-split netlist must also pass techmap.CheckMapped, and the
// area-shared one netlint.
//
// Seeds: cmd/balsabm/testdata/pulse.bms, whose never-toggled output
// maps to the tied-low net; the compiled spec of r7c3.ch, whose
// area-shared mapping once turned a copy of a C-element-driven
// function into a buffer of that net; and the compiled spec of every
// component of the Table 3 designs, both arms.
func FuzzBMSynth(f *testing.F) {
	pulse, err := os.ReadFile("../../cmd/balsabm/testdata/pulse.bms")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(pulse))
	r7c3, err := os.ReadFile("../../cmd/balsabm/testdata/r7c3.ch")
	if err != nil {
		f.Fatal(err)
	}
	seed, err := core.ParseNetlist(string(r7c3))
	if err != nil {
		f.Fatal(err)
	}
	seeds := seed.Components
	for _, d := range designs.All() {
		n := d.Control()
		opt, _, err := core.Optimize(n)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(append(seeds, n.Components...), opt.Components...)
	}
	for _, c := range seeds {
		sp, err := chtobm.Compile(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sp.String())
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
		for _, mode := range []techmap.Mode{techmap.SpeedSplit, techmap.AreaShared} {
			nl, err := techmap.MapController(ctrl, mode, lib)
			if err != nil {
				t.Fatalf("%s mapping: %v", mode, err)
			}
			units := []hazver.Unit{hazver.ControllerUnit(sp.Name, ctrl, nl)}
			res := hazver.Audit(sp.Name, units, lib, hazver.Options{})
			if hazver.HasErrors(res.Diags) || !res.Stats.Compiled {
				t.Fatalf("hazver rejects the %s mapping:\n%s", mode, hazver.Format(res.Diags, res.Name))
			}
			ref := hazver.AuditInterpreted(sp.Name, units, lib)
			if got, want := findings(ref), findings(res); got != want {
				t.Fatalf("interpreted hazver disagrees with the compiled audit of the %s mapping:\n%s\nwant:\n%s", mode, got, want)
			}
			if mode == techmap.SpeedSplit {
				if err := techmap.CheckMapped(ctrl, nl, lib); err != nil {
					t.Fatalf("hazver passes the speed-split mapping, CheckMapped rejects it: %v", err)
				}
			} else if nr := netlint.Audit(nl, lib); netlint.HasErrors(nr.Diags) {
				t.Fatalf("area-shared mapping fails netlint:\n%s", netlint.Format(nr.Diags, nr.Name))
			}
		}
	})
}

// findings renders an audit's diagnostics and static report, the
// part the compiled audit and the interpreted oracle must agree on.
func findings(res hazver.Result) string {
	out := fmt.Sprintf("%+v\n", res.Stats)
	for _, d := range res.Diags {
		if d.Code != "HZ200" {
			out += d.Render(res.Name) + "\n"
		}
	}
	return out
}
