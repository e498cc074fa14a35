package hazver

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/cell"
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
}

// stripVolatile drops the diagnostics whose content legitimately
// differs between the compiled and interpreted paths (the HZ200
// report names the path; HZ101 only fires on compile failure).
func stripVolatile(ds []Diag) []Diag {
	var out []Diag
	for _, d := range ds {
		if d.Code == "HZ200" || d.Code == "HZ101" {
			continue
		}
		out = append(out, d)
	}
	return out
}

// The compiled 64-lane path and the interpreted oracle must agree on
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
	base := Audit("t", mkUnits(), lib, Options{})
	if !base.Stats.Compiled {
		t.Fatal("base audit did not take the compiled path")
	}
	for _, j := range []int{1, 2, 7} {
		pool := parallel.NewPool(j)
		for _, interp := range []bool{false, true} {
			res := Audit("t", mkUnits(), lib, Options{Pool: pool, Interpreted: interp})
			got := fmt.Sprintf("%v", stripVolatile(res.Diags))
			want := fmt.Sprintf("%v", stripVolatile(base.Diags))
			if got != want {
				t.Fatalf("j=%d interpreted=%v diverged:\n%s\nwant:\n%s", j, interp, got, want)
			}
			if res.Stats.MaxXDepth != base.Stats.MaxXDepth {
				t.Fatalf("j=%d interpreted=%v: X depth %d, want %d", j, interp, res.Stats.MaxXDepth, base.Stats.MaxXDepth)
			}
		}
	}
}

// TestConstZeroIsTiedLow: techmap maps an empty cover — a function the
// specification never raises — to a buffer of the tied-low net
// "const0$". hazver holds that net at 0, as netlint and the Verilog do,
// so pulse's never-toggled output idle verifies clean in both mapping
// modes on both evaluation paths, while an inverter of the net still
// evaluates to 1 where the specification requires 0.
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
				return Audit("pulse", []Unit{ControllerUnit("pulse", ctrl, nl)}, lib, Options{Interpreted: interp})
			}
			if res := audit(); HasErrors(res.Diags) || res.Stats.Compiled == interp {
				t.Errorf("%s interpreted=%v: %+v\n%s", mode, interp, res.Stats, Format(res.Diags, res.Name))
			}
			inst.Cell = "INV"
			if res := audit(); !diag.HasCode(res.Diags, "HZ003") || diag.HasCode(res.Diags, "HZ001") {
				t.Errorf("%s interpreted=%v: INV const0$ must be an HZ003 mismatch, not an X:\n%s", mode, interp, Format(res.Diags, res.Name))
			}
		}
	}
}
