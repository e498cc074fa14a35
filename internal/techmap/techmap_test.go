package techmap

import (
	"strings"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/minimalist"
)

func controller(t *testing.T, name, src string) *minimalist.Controller {
	t.Helper()
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := chtobm.Compile(&ch.Program{Name: name, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

const passivatorSrc = `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`
const sequencerSrc = `(rep (enc-early (p-to-p passive P)
    (seq (p-to-p active A1) (p-to-p active A2))))`
const callSrc = `(rep (mutex
    (enc-early (p-to-p passive A1) (p-to-p active B))
    (enc-early (p-to-p passive A2) (p-to-p active B))))`

// The baseline (area-shared) passivator collapses to C-elements: both
// acknowledges have the cover majority(A_r, B_r, A_a), so each is a C2
// on the two requests. A buffer of A_a for B_a would read A_a's old
// value during the burst that raises both.
func TestPassivatorBaselineIsCElement(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "passivator", passivatorSrc)
	nl, err := MapController(ctrl, AreaShared, lib)
	if err != nil {
		t.Fatal(err)
	}
	counts := nl.CellCounts()
	if counts["C2"] != 2 || len(nl.Instances) != 2 {
		t.Fatalf("want exactly two C2 and nothing else, got %v", counts)
	}
	for _, inst := range nl.Instances {
		if got := []string{nl.NetNames[inst.Inputs[0]], nl.NetNames[inst.Inputs[1]]}; got[0] != "A_r" || got[1] != "B_r" {
			t.Fatalf("%s is a C2 on %v, want on A_r and B_r", nl.NetNames[inst.Output], got)
		}
	}
	// The optimized-style mapping of the same controller is much
	// larger — the paper's area-overhead mechanism in miniature.
	split, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if split.Area(lib) <= nl.Area(lib) {
		t.Fatalf("speed-split (%.0f) should exceed baseline (%.0f)", split.Area(lib), nl.Area(lib))
	}
}

// SpeedSplit netlists must be functionally identical to their covers
// (the Section 5 hazard audit).
func TestCheckMappedSpeedSplit(t *testing.T) {
	lib := cell.AMS035()
	for _, tc := range []struct{ name, src string }{
		{"passivator", passivatorSrc},
		{"sequencer", sequencerSrc},
		{"call", callSrc},
	} {
		ctrl := controller(t, tc.name, tc.src)
		nl, err := MapController(ctrl, SpeedSplit, lib)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckMapped(ctrl, nl, lib); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// Split mapping keeps the two NAND levels in separate modules.
func TestSplitModules(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	areas := ModuleAreas(nl, lib)
	if areas[1] == 0 || areas[2] == 0 {
		t.Fatalf("module areas %v: both levels must be populated", areas)
	}
	for _, inst := range nl.Instances {
		if inst.Module != 1 && inst.Module != 2 {
			t.Fatalf("instance %v outside the two levels", inst)
		}
	}
}

// Verilog output is produced and mentions every cell.
func TestVerilog(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	v := VerilogModules(nl, lib)
	for _, want := range []string{"module sequencer", "endmodule", "NAND", "input P_r", "output A1_r"} {
		if !strings.Contains(v, want) {
			t.Fatalf("verilog missing %q:\n%s", want, v)
		}
	}
}

// Wide covers exercise the tree reducer (NAND trees above 4 inputs).
func TestWideFunctionMapping(t *testing.T) {
	lib := cell.AMS035()
	// A 5-way sequencer yields functions with many literals.
	src := `(rep (enc-early (p-to-p passive P)
	    (seq (p-to-p active A1) (p-to-p active A2) (p-to-p active A3)
	         (p-to-p active A4) (p-to-p active A5))))`
	ctrl := controller(t, "seq5", src)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMapped(ctrl, nl, lib); err != nil {
		t.Fatal(err)
	}
}

// Reports include positive areas and critical paths; speed-split should
// not be slower than a few ns for controllers this size.
func TestSummarize(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "call", callSrc)
	for _, mode := range []Mode{SpeedSplit, AreaShared} {
		nl, err := MapController(ctrl, mode, lib)
		if err != nil {
			t.Fatal(err)
		}
		r := Summarize(nl, mode, lib)
		if r.Area <= 0 || r.Critical <= 0 || r.Cells <= 0 {
			t.Fatalf("degenerate report %+v", r)
		}
		if r.Critical > 3 {
			t.Fatalf("critical path %.2f ns implausibly long", r.Critical)
		}
	}
}

// The mapped controller's settled behavior matches the walk over the
// spec for the baseline mode too (dynamic check via gates.Settle).
func TestAreaSharedFunctional(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "passivator", passivatorSrc)
	nl, err := MapController(ctrl, AreaShared, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the passivator protocol: raise A_r and B_r; acknowledge
	// must rise; lower both; acknowledges fall.
	vals, err := nl.Settle(lib, map[string]bool{"A_r": false, "B_r": false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) bool {
		v, err := nl.Value(vals, name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if get("A_a") || get("B_a") {
		t.Fatal("acknowledges high at reset")
	}
	vals, err = nl.Settle(lib, map[string]bool{"A_r": true, "B_r": true}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !get("A_a") || !get("B_a") {
		t.Fatal("acknowledges did not rise")
	}
	// Only one request low: C-element holds.
	vals, err = nl.Settle(lib, map[string]bool{"A_r": false, "B_r": true}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !get("A_a") {
		t.Fatal("C-element did not hold")
	}
	vals, err = nl.Settle(lib, map[string]bool{"A_r": false, "B_r": false}, vals)
	if err != nil {
		t.Fatal(err)
	}
	if get("A_a") || get("B_a") {
		t.Fatal("acknowledges did not fall")
	}
	_ = bm.Burst{}
}
