package hazver

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/diag"
	"balsabm/internal/gates"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
	"balsabm/internal/parallel"
	"balsabm/internal/techmap"
)

// unit1 builds a one-output unit over the given variables with the
// given netlist and transitions.
func unit1(nl *gates.Netlist, vars []string, trs ...hfmin.Transition) Unit {
	return Unit{
		Name:        nl.Name,
		Vars:        vars,
		Outputs:     []string{"z"},
		Transitions: map[string][]hfmin.Transition{"z": trs},
		Netlist:     nl,
	}
}

// glitchyMux is the textbook static-1 hazard: z = a·b + ¬a·c without
// the consensus term b·c. For a falling with b=c=1 the specification
// holds z at 1, but the decomposition can glitch.
func glitchyMux() *gates.Netlist {
	nl := gates.New("mux")
	a, b, c := nl.Net("a"), nl.Net("b"), nl.Net("c")
	nl.Inputs = append(nl.Inputs, a, b, c)
	t1, na, t2 := nl.Net("t1"), nl.Net("na"), nl.Net("t2")
	z := nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	nl.AddInstance("AND2", []int{a, b}, t1, 0)
	nl.AddInstance("INV", []int{a}, na, 0)
	nl.AddInstance("AND2", []int{na, c}, t2, 0)
	nl.AddInstance("OR2", []int{t1, t2}, z, 0)
	return nl
}

// cleanMux adds the consensus term, making the same function
// hazard-free for the same burst.
func cleanMux() *gates.Netlist {
	nl := gates.New("mux")
	a, b, c := nl.Net("a"), nl.Net("b"), nl.Net("c")
	nl.Inputs = append(nl.Inputs, a, b, c)
	t1, na, t2, t3 := nl.Net("t1"), nl.Net("na"), nl.Net("t2"), nl.Net("t3")
	z := nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	nl.AddInstance("AND2", []int{a, b}, t1, 0)
	nl.AddInstance("INV", []int{a}, na, 0)
	nl.AddInstance("AND2", []int{na, c}, t2, 0)
	nl.AddInstance("AND2", []int{b, c}, t3, 0)
	nl.AddInstance("OR3", []int{t1, t2, t3}, z, 0)
	return nl
}

// aFalls is the burst a- with b=c=1 and z specified stable at 1.
var aFalls = hfmin.Transition{
	Start: []bool{true, true, true},
	End:   []bool{false, true, true},
	From:  true, To: true,
}

func TestStaticHazardCaught(t *testing.T) {
	lib := cell.AMS035()
	res := Audit("t", []Unit{unit1(glitchyMux(), []string{"a", "b", "c"}, aFalls)}, lib, Options{})
	errs, _, _ := Count(res.Diags)
	if errs != 1 {
		t.Fatalf("got %d errors, want 1:\n%s", errs, Format(res.Diags, "t"))
	}
	var hz Diag
	for _, d := range res.Diags {
		if d.Code == "HZ001" {
			hz = d
		}
	}
	if hz.Code != "HZ001" {
		t.Fatalf("no HZ001:\n%s", Format(res.Diags, "t"))
	}
	// The diagnostic names the output, the burst, and the offending net.
	if hz.Loc.Fn != "z" || hz.Loc.Burst != "a-" {
		t.Fatalf("loc = %+v", hz.Loc)
	}
	if !strings.Contains(hz.Message, `net "mux.t1"`) && !strings.Contains(hz.Message, `net "mux.t2"`) {
		t.Fatalf("message does not name the offending net: %s", hz.Message)
	}
	if !res.Stats.Compiled || res.Stats.Bursts != 1 || res.Stats.Passes != 3 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.MaxXDepth < 2 {
		t.Fatalf("X depth %d, want >= 2", res.Stats.MaxXDepth)
	}
}

func TestConsensusTermIsHazardFree(t *testing.T) {
	lib := cell.AMS035()
	res := Audit("t", []Unit{unit1(cleanMux(), []string{"a", "b", "c"}, aFalls)}, lib, Options{})
	if HasErrors(res.Diags) {
		t.Fatalf("unexpected errors:\n%s", Format(res.Diags, "t"))
	}
	if !diag.HasCode(res.Diags, "HZ200") {
		t.Fatalf("no static report:\n%s", Format(res.Diags, "t"))
	}
}

// z = a decomposed through a reconvergent pair of AND gates over b:
// during the burst {a+, b+} the function must hold 0 until the burst
// completes, but with b still low and a unknown the OR can see X.
func TestDynamicHazardCaught(t *testing.T) {
	lib := cell.AMS035()
	nl := gates.New("dyn")
	a, b := nl.Net("a"), nl.Net("b")
	nl.Inputs = append(nl.Inputs, a, b)
	nb, t1, t2 := nl.Net("nb"), nl.Net("t1"), nl.Net("t2")
	z := nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	nl.AddInstance("INV", []int{b}, nb, 0)
	nl.AddInstance("AND2", []int{a, nb}, t1, 0)
	nl.AddInstance("AND2", []int{a, b}, t2, 0)
	nl.AddInstance("OR2", []int{t1, t2}, z, 0)
	rise := hfmin.Transition{
		Start: []bool{false, false},
		End:   []bool{true, true},
		From:  false, To: true,
	}
	res := Audit("t", []Unit{unit1(nl, []string{"a", "b"}, rise)}, lib, Options{})
	if !diag.HasCode(res.Diags, "HZ002") {
		t.Fatalf("no HZ002:\n%s", Format(res.Diags, "t"))
	}
	for _, d := range res.Diags {
		if d.Code == "HZ002" && !strings.Contains(d.Message, `"b"`) {
			t.Fatalf("HZ002 does not name the held variable: %s", d.Message)
		}
	}
}

// A mapped function that disagrees with the specification at a burst
// endpoint is a functional mismatch, not a hazard.
func TestEndpointMismatch(t *testing.T) {
	lib := cell.AMS035()
	nl := gates.New("inv")
	a := nl.Net("a")
	nl.Inputs = append(nl.Inputs, a)
	z := nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	nl.AddInstance("INV", []int{a}, z, 0)
	steady := hfmin.Transition{Start: []bool{true}, End: []bool{true}, From: true, To: true}
	res := Audit("t", []Unit{unit1(nl, []string{"a"}, steady)}, lib, Options{})
	errs, _, _ := Count(res.Diags)
	if errs != 2 || !diag.HasCode(res.Diags, "HZ003") {
		t.Fatalf("want 2 HZ003 (start and end point):\n%s", Format(res.Diags, "t"))
	}
}

func TestUndrivenFunctionWarns(t *testing.T) {
	lib := cell.AMS035()
	nl := gates.New("empty")
	a := nl.Net("a")
	nl.Inputs = append(nl.Inputs, a)
	z := nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	steady := hfmin.Transition{Start: []bool{true}, End: []bool{true}, From: true, To: true}
	res := Audit("t", []Unit{unit1(nl, []string{"a"}, steady)}, lib, Options{})
	if !diag.HasCode(res.Diags, "HZ100") || HasErrors(res.Diags) {
		t.Fatalf("want HZ100 warning only:\n%s", Format(res.Diags, "t"))
	}
	if res.Stats.Unverified != 1 || res.Stats.Bursts != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestSkippedUnits(t *testing.T) {
	lib := cell.AMS035()
	res := Audit("t", []Unit{{Name: "hand"}}, lib, Options{})
	if res.Stats.Skipped != 1 || res.Stats.Units != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if HasErrors(res.Diags) {
		t.Fatalf("unexpected errors:\n%s", Format(res.Diags, "t"))
	}
}

// Two units with colliding private net names must verify
// independently after the merge: the same glitchy circuit twice
// yields the same hazard twice, attributed to namespaced functions.
func TestMergedNamespacing(t *testing.T) {
	lib := cell.AMS035()
	u1 := unit1(glitchyMux(), []string{"a", "b", "c"}, aFalls)
	u2 := unit1(glitchyMux(), []string{"a", "b", "c"}, aFalls)
	// Give the second unit distinct boundary nets so the two outputs
	// remain separate functions in the merged circuit.
	sub := map[string]string{"a": "a2", "b": "b2", "c": "c2", "z": "z2"}
	u2.Netlist = u2.Netlist.Rename("mux", sub)
	u2.Vars = []string{"a2", "b2", "c2"}
	u2.Outputs = []string{"z2"}
	u2.Transitions = map[string][]hfmin.Transition{"z2": {aFalls}}
	res := Audit("t", []Unit{u1, u2}, lib, Options{})
	errs, _, _ := Count(res.Diags)
	if errs != 2 {
		t.Fatalf("got %d errors, want 2:\n%s", errs, Format(res.Diags, "t"))
	}
	if res.Stats.Units != 2 || res.Stats.Functions != 2 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Each unit's private nets carry the name gates.Merge gives them:
	// the repeated part name takes a ".2" suffix.
	var msgs []string
	for _, d := range res.Diags {
		if d.Code == "HZ001" {
			msgs = append(msgs, d.Message)
		}
	}
	if len(msgs) != 2 || !strings.Contains(msgs[0], `net "mux.t`) || !strings.Contains(msgs[1], `net "mux.2.t`) {
		t.Fatalf("private nets not named as in the merged circuit:\n%s", Format(res.Diags, "t"))
	}
}

// A unit whose netlist gates.Compile rejects — here a combinational
// loop that no forced net cuts — is an HZ000 error naming the unit and
// the compile error, and none of its bursts counts as verified.
func TestUncompilableUnitIsAnError(t *testing.T) {
	lib := cell.AMS035()
	nl := gates.New("loop")
	a := nl.Net("a")
	nl.Inputs = append(nl.Inputs, a)
	t1, t2, z := nl.Net("t1"), nl.Net("t2"), nl.Net("z")
	nl.Outputs = append(nl.Outputs, z)
	nl.AddInstance("NAND2", []int{a, t2}, t1, 0)
	nl.AddInstance("INV", []int{t1}, t2, 0)
	nl.AddInstance("BUF", []int{t1}, z, 0)
	steady := hfmin.Transition{Start: []bool{true}, End: []bool{true}, From: true, To: true}
	rise := hfmin.Transition{Start: []bool{false}, End: []bool{true}, From: false, To: true}
	res := Audit("t", []Unit{unit1(nl, []string{"a"}, steady, rise)}, lib, Options{})
	var hz []Diag
	for _, d := range res.Diags {
		if d.Code == "HZ000" {
			hz = append(hz, d)
		}
	}
	if len(hz) != 1 || hz[0].Severity != SevError || hz[0].Loc != NoLoc ||
		!strings.Contains(hz[0].Message, `unit "loop"`) || !strings.Contains(hz[0].Message, "cycle") {
		t.Fatalf("want one circuit-level HZ000 naming the unit and the compile error:\n%s", Format(res.Diags, "t"))
	}
	if !HasErrors(res.Diags) {
		t.Fatal("an uncompilable unit passes")
	}
	st := res.Stats
	if st.Compiled || st.Units != 1 || st.Bursts != 0 || st.Unverified != 2 || st.Passes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "2 unverified") || !strings.Contains(st.String(), "a unit failed to compile") {
		t.Fatalf("report = %s", st)
	}
}

// withoutReport drops the HZ200 static report, which the agreement
// test compares through Stats instead.
func withoutReport(ds []Diag) []Diag {
	var out []Diag
	for _, d := range ds {
		if d.Code != "HZ200" {
			out = append(out, d)
		}
	}
	return out
}

// The compiled 64-lane audit and the interpreted oracle must agree on
// every diagnostic and on the depth report, at any worker count.
func TestCompiledVsInterpretedAgreement(t *testing.T) {
	lib := cell.AMS035()
	mkUnits := func() []Unit {
		rise := hfmin.Transition{
			Start: []bool{false, false, true},
			End:   []bool{true, true, true},
			From:  false, To: true,
		}
		u1 := unit1(glitchyMux(), []string{"a", "b", "c"}, aFalls, rise)
		u2 := unit1(cleanMux(), []string{"a", "b", "c"}, aFalls)
		sub := map[string]string{"a": "a2", "b": "b2", "c": "c2", "z": "z2"}
		u2.Netlist = u2.Netlist.Rename("mux2", sub)
		u2.Vars = []string{"a2", "b2", "c2"}
		u2.Outputs = []string{"z2"}
		u2.Transitions = map[string][]hfmin.Transition{"z2": {aFalls}}
		return []Unit{u1, u2}
	}
	ref := auditInterpreted("t", mkUnits(), lib)
	want := fmt.Sprintf("%v", withoutReport(ref.Diags))
	for _, j := range []int{1, 2, 7} {
		res := Audit("t", mkUnits(), lib, Options{Pool: parallel.NewPool(j)})
		if got := fmt.Sprintf("%v", withoutReport(res.Diags)); got != want {
			t.Fatalf("j=%d diverged from the interpreted oracle:\n%s\nwant:\n%s", j, got, want)
		}
		if res.Stats != ref.Stats || !res.Stats.Compiled {
			t.Fatalf("j=%d: stats %+v, oracle %+v", j, res.Stats, ref.Stats)
		}
	}
}

// TestConstZeroIsTiedLow: techmap maps an empty cover — a function the
// specification never raises — to a buffer of the tied-low net
// "const0$". hazver holds that net at 0, as netlint and the Verilog do,
// so pulse's never-toggled output idle verifies clean in both mapping
// modes, compiled and on the interpreted oracle, while an inverter of
// the net still evaluates to 1 where the specification requires 0.
func TestConstZeroIsTiedLow(t *testing.T) {
	src, err := os.ReadFile("../../cmd/balsabm/testdata/pulse.bms")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := bm.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.AMS035()
	for _, mode := range []techmap.Mode{techmap.SpeedSplit, techmap.AreaShared} {
		for _, interp := range []bool{false, true} {
			nl, err := techmap.MapController(ctrl, mode, lib)
			if err != nil {
				t.Fatal(err)
			}
			inst := &nl.Instances[nl.Driver(nl.Net("idle"))]
			if inst.Cell != "BUF" || inst.Inputs[0] != nl.Const0 {
				t.Fatalf("%s: idle is driven by %s, want BUF const0$", mode, inst.Cell)
			}
			audit := func() Result {
				units := []Unit{ControllerUnit("pulse", ctrl, nl)}
				if interp {
					return auditInterpreted("pulse", units, lib)
				}
				return Audit("pulse", units, lib, Options{})
			}
			if res := audit(); HasErrors(res.Diags) || !res.Stats.Compiled {
				t.Errorf("%s interpreted=%v: %+v\n%s", mode, interp, res.Stats, Format(res.Diags, res.Name))
			}
			inst.Cell = "INV"
			if res := audit(); !diag.HasCode(res.Diags, "HZ003") || diag.HasCode(res.Diags, "HZ001") {
				t.Errorf("%s interpreted=%v: INV const0$ must be an HZ003 mismatch, not an X:\n%s", mode, interp, Format(res.Diags, res.Name))
			}
		}
	}
}

// TestAreaSharedCElementCopies: the area-shared mapping gives a
// function whose cover equals a C-element-driven function's its own
// C-element, so hazver verifies both mappings of the passivator and of
// r7c3's controller, whose c5_a copies c4_a's cover. Both used to map
// the copy to a buffer of the C-element's net, which hazver rejects.
func TestAreaSharedCElementCopies(t *testing.T) {
	lib := cell.AMS035()
	for _, tc := range []struct{ name, src string }{
		{"passivator", "(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))"},
		{"r7c3", `(rep (enc-early (p-to-p passive c1act)
			(seq (enc-middle (p-to-p passive c2) (p-to-p active c3))
			     (enc-middle (p-to-p passive c4) (p-to-p passive c5)))))`},
	} {
		body, err := ch.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := chtobm.Compile(&ch.Program{Name: tc.name, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := minimalist.Synthesize(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []techmap.Mode{techmap.SpeedSplit, techmap.AreaShared} {
			nl, err := techmap.MapController(ctrl, mode, lib)
			if err != nil {
				t.Fatal(err)
			}
			res := Audit(tc.name, []Unit{ControllerUnit(tc.name, ctrl, nl)}, lib, Options{})
			if HasErrors(res.Diags) || !res.Stats.Compiled {
				t.Errorf("%s %s: %+v\n%s", tc.name, mode, res.Stats, Format(res.Diags, res.Name))
			}
		}
	}
}
