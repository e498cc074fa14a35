package netlint

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// find returns every diagnostic with the given code.
func find(ds []Diag, code string) []Diag {
	var out []Diag
	for _, d := range ds {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// codes returns the sorted-unique code set of the diagnostics.
func codes(ds []Diag) []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range ds {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	return out
}

// clean builds a minimal healthy netlist: in -> INV -> mid -> INV -> out.
func clean() *gates.Netlist {
	nl := gates.New("clean")
	in := nl.Net("in")
	mid := nl.Net("mid")
	out := nl.Net("out")
	nl.Inputs = []int{in}
	nl.Outputs = []int{out}
	nl.AddInstance("INV", []int{in}, mid, 0)
	nl.AddInstance("INV", []int{mid}, out, 0)
	return nl
}

func TestCleanNetlist(t *testing.T) {
	lib := cell.AMS035()
	ds := Analyze(clean(), lib)
	if HasErrors(ds) {
		t.Fatalf("clean netlist has errors:\n%s", Format(ds, "clean"))
	}
	// Only the NL200 report should remain.
	if got := codes(ds); len(got) != 1 || got[0] != "NL200" {
		t.Fatalf("clean netlist codes = %v, want [NL200]", got)
	}
}

func TestMalformedShortCircuits(t *testing.T) {
	nl := clean()
	nl.Instances[0].Inputs[0] = 99 // out of range
	ds := Analyze(nl, cell.AMS035())
	if len(find(ds, "NL000")) == 0 {
		t.Fatal("no NL000 for out-of-range net id")
	}
	// Graph passes must have been skipped: nothing but NL000.
	if got := codes(ds); len(got) != 1 || got[0] != "NL000" {
		t.Fatalf("malformed netlist codes = %v, want [NL000] only", got)
	}
	d := find(ds, "NL000")[0]
	if d.Loc.Inst != 0 || d.Loc.Cell != "INV" {
		t.Fatalf("NL000 at %+v, want instance 0 (INV)", d.Loc)
	}
	// Audit must return zero stats rather than walking a broken graph.
	if res := Audit(nl, cell.AMS035()); res.Stats != (Stats{}) {
		t.Fatalf("Audit of malformed netlist computed stats %+v", res.Stats)
	}
}

func TestMultipleDrivers(t *testing.T) {
	nl := clean()
	// Second driver onto "mid".
	nl.AddInstance("INV", []int{nl.Net("in")}, nl.Net("mid"), 0)
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL001")
	if len(got) != 1 {
		t.Fatalf("NL001 count = %d, want 1:\n%s", len(got), Format(ds, ""))
	}
	d := got[0]
	if d.Loc.Name != "mid" {
		t.Fatalf("NL001 at net %q, want mid", d.Loc.Name)
	}
	if len(d.Notes) != 2 || !strings.Contains(d.Notes[0], "g0(INV)") || !strings.Contains(d.Notes[1], "g2(INV)") {
		t.Fatalf("NL001 notes = %v, want both drivers named", d.Notes)
	}
}

func TestFloatingNet(t *testing.T) {
	nl := gates.New("t")
	in := nl.Net("in")
	ghost := nl.Net("ghost") // consumed, never driven
	out := nl.Net("out")
	nl.Inputs = []int{in}
	nl.Outputs = []int{out}
	nl.AddInstance("AND2", []int{in, ghost}, out, 0)
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL002")
	if len(got) != 1 || got[0].Loc.Name != "ghost" {
		t.Fatalf("NL002 = %v, want one at net ghost", got)
	}

	// A floating primary output is also NL002.
	nl2 := clean()
	nl2.Outputs = append(nl2.Outputs, nl2.Net("dangling"))
	ds2 := Analyze(nl2, cell.AMS035())
	got2 := find(ds2, "NL002")
	if len(got2) != 1 || got2[0].Loc.Name != "dangling" {
		t.Fatalf("NL002 = %v, want one at net dangling", got2)
	}
	if !strings.Contains(got2[0].Message, "primary output") {
		t.Fatalf("NL002 message %q does not name the output role", got2[0].Message)
	}
}

func TestUnknownCellAndArity(t *testing.T) {
	nl := clean()
	nl.AddInstance("FROB3", []int{nl.Net("in")}, nl.Net("x"), 0)
	nl.Outputs = append(nl.Outputs, nl.Net("x"))
	nl.AddInstance("NAND2", []int{nl.Net("in")}, nl.Net("y"), 0) // 1 pin on a 2-input cell
	nl.Outputs = append(nl.Outputs, nl.Net("y"))
	ds := Analyze(nl, cell.AMS035())
	if got := find(ds, "NL003"); len(got) != 1 || got[0].Loc.Inst != 2 {
		t.Fatalf("NL003 = %v, want one at instance 2", got)
	}
	got := find(ds, "NL004")
	if len(got) != 1 || got[0].Loc.Inst != 3 || got[0].Loc.Cell != "NAND2" {
		t.Fatalf("NL004 = %v, want one at instance 3 (NAND2)", got)
	}
}

func TestCombinationalCycle(t *testing.T) {
	// a -> INV -> b -> INV -> a : pure combinational loop (oscillator).
	nl := gates.New("osc")
	a := nl.Net("a")
	b := nl.Net("b")
	out := nl.Net("out")
	nl.Outputs = []int{out}
	nl.AddInstance("INV", []int{a}, b, 0)
	nl.AddInstance("INV", []int{b}, a, 0)
	nl.AddInstance("BUF", []int{a}, out, 0)
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL005")
	if len(got) != 1 {
		t.Fatalf("NL005 count = %d, want exactly 1 (cycle deduped):\n%s", len(got), Format(ds, ""))
	}
	if len(got[0].Notes) != 2 {
		t.Fatalf("NL005 notes = %v, want the 2-net cycle path", got[0].Notes)
	}
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// C-element state feedback: y = C(a, y') through an inverter — the
	// loop passes through a stateful cell, so it is not NL005.
	nl := gates.New("seq")
	a := nl.Net("a")
	y := nl.Net("y")
	yb := nl.Net("yb")
	nl.Inputs = []int{a}
	nl.Outputs = []int{y}
	nl.AddInstance("C2", []int{a, yb}, y, 0)
	nl.AddInstance("INV", []int{y}, yb, 0)
	ds := Analyze(nl, cell.AMS035())
	if got := find(ds, "NL005"); len(got) != 0 {
		t.Fatalf("legal sequential loop reported NL005: %v", got)
	}
	if HasErrors(ds) {
		t.Fatalf("legal sequential loop has errors:\n%s", Format(ds, ""))
	}
}

func TestFundamentalModeFeedbackIsLegal(t *testing.T) {
	// A fed-back output: z = NAND(a, z_n) with z_n = INV(z) — the
	// classic Burst-Mode shape, combinational but closed through a
	// primary output, so fundamental mode (not netlint) owns it.
	nl := gates.New("fb")
	a := nl.Net("a")
	z := nl.Net("z")
	zn := nl.Net("z_n$3")
	nl.Inputs = []int{a}
	nl.Outputs = []int{z}
	nl.AddInstance("INV", []int{z}, zn, 1)
	nl.AddInstance("NAND2", []int{a, zn}, z, 2)
	ds := Analyze(nl, cell.AMS035())
	if got := find(ds, "NL005"); len(got) != 0 {
		t.Fatalf("fed-back output reported NL005: %v", got)
	}

	// A y<k> state-variable loop, including the merged "part.y0" form.
	for _, yName := range []string{"y0", "seq.y0"} {
		nl2 := gates.New("st")
		b := nl2.Net("b")
		y := nl2.Net(yName)
		out := nl2.Net("out")
		nl2.Inputs = []int{b}
		nl2.Outputs = []int{out}
		nl2.AddInstance("NAND2", []int{b, y}, y, 1)
		nl2.AddInstance("INV", []int{y}, out, 2)
		ds2 := Analyze(nl2, cell.AMS035())
		if got := find(ds2, "NL005"); len(got) != 0 {
			t.Fatalf("%s state loop reported NL005: %v", yName, got)
		}
	}
}

func TestStateNet(t *testing.T) {
	for name, want := range map[string]bool{
		"y0": true, "y12": true, "seq.y3": true, "a.b.y7": true,
		"y": false, "ya": false, "y0_n$3": false, "my0": false, "out": false,
	} {
		if got := stateNet(name); got != want {
			t.Errorf("stateNet(%q) = %t, want %t", name, got, want)
		}
	}
}

func TestDuplicateAndCollidingNames(t *testing.T) {
	nl := clean()
	// Bypass Net() interning to forge a duplicate raw name.
	nl.NetNames = append(nl.NetNames, "in")
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL006")
	if len(got) != 1 || got[0].Loc.Net != 3 {
		t.Fatalf("NL006 = %v, want one at net id 3", got)
	}

	// "t$1" and "t_1" sanitize to the same Verilog identifier.
	nl2 := clean()
	nl2.Net("t$1")
	nl2.Net("t_1")
	ds2 := Analyze(nl2, cell.AMS035())
	got2 := find(ds2, "NL007")
	if len(got2) != 1 {
		t.Fatalf("NL007 count = %d, want 1:\n%s", len(got2), Format(ds2, ""))
	}
	if !strings.Contains(got2[0].Message, `"t_1"`) || !strings.Contains(got2[0].Message, `"t$1"`) {
		t.Fatalf("NL007 message %q does not name both nets", got2[0].Message)
	}

	// A name holding every character the sanitizer rewrites prints in
	// the emitted module as exactly the identifier NL007 reports, once
	// for each of the two colliding nets.
	nl3 := clean()
	nl3.Net("a$b+c-d.e")
	nl3.Net("a_bpcmd_e")
	got3 := find(Analyze(nl3, cell.AMS035()), "NL007")
	if len(got3) != 1 || !strings.Contains(got3[0].Message, `Verilog identifier "a_bpcmd_e"`) {
		t.Fatalf("NL007 = %v, want one naming identifier a_bpcmd_e", got3)
	}
	v := nl3.Verilog(cell.AMS035())
	if n := strings.Count(v, "wire a_bpcmd_e;"); n != 2 || strings.Contains(v, "a$b+c-d.e") {
		t.Fatalf("Verilog declares a_bpcmd_e %d times (want 2) or keeps the raw name:\n%s", n, v)
	}
}

func TestDrivenPortsAndDuplicatePorts(t *testing.T) {
	nl := clean()
	// Drive the primary input.
	nl.AddInstance("BUF", []int{nl.Net("mid")}, nl.Net("in"), 0)
	// Drive the tied-low net.
	c0 := nl.ConstZero()
	nl.AddInstance("BUF", []int{nl.Net("mid")}, c0, 0)
	// List "out" twice among outputs.
	nl.Outputs = append(nl.Outputs, nl.Net("out"))
	ds := Analyze(nl, cell.AMS035())
	if got := find(ds, "NL008"); len(got) != 1 || got[0].Loc.Inst != 2 || got[0].Loc.Name != "in" {
		t.Fatalf("NL008 = %v, want one at g2 net in", got)
	}
	if got := find(ds, "NL009"); len(got) != 1 || got[0].Loc.Inst != 3 {
		t.Fatalf("NL009 = %v, want one at g3", got)
	}
	if got := find(ds, "NL010"); len(got) != 1 || got[0].Loc.Name != "out" {
		t.Fatalf("NL010 = %v, want one at net out", got)
	}
}

func TestUnusedDrivenNet(t *testing.T) {
	nl := clean()
	nl.AddInstance("INV", []int{nl.Net("in")}, nl.Net("scratch"), 0)
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL100")
	if len(got) != 1 || got[0].Loc.Name != "scratch" || got[0].Loc.Inst != 2 {
		t.Fatalf("NL100 = %v, want one at g2 net scratch", got)
	}
	if got[0].Severity != SevWarning {
		t.Fatalf("NL100 severity = %v, want warning", got[0].Severity)
	}
	// The same gate is also dead (scratch reaches no output).
	if got := find(ds, "NL101"); len(got) != 1 || got[0].Loc.Inst != 2 {
		t.Fatalf("NL101 = %v, want one at g2", got)
	}
	if HasErrors(ds) {
		t.Fatalf("warnings must not be errors:\n%s", Format(ds, ""))
	}
}

func TestDeadGateChain(t *testing.T) {
	// A two-gate dead cone: both gates warn, the live path does not.
	nl := clean()
	d1 := nl.Net("d1")
	d2 := nl.Net("d2")
	nl.AddInstance("INV", []int{nl.Net("in")}, d1, 0)
	nl.AddInstance("INV", []int{d1}, d2, 0)
	ds := Analyze(nl, cell.AMS035())
	got := find(ds, "NL101")
	if len(got) != 2 {
		t.Fatalf("NL101 count = %d, want 2:\n%s", len(got), Format(ds, ""))
	}
	if got[0].Loc.Inst != 2 || got[1].Loc.Inst != 3 {
		t.Fatalf("NL101 at instances %d,%d, want 2,3", got[0].Loc.Inst, got[1].Loc.Inst)
	}
}

func TestStats(t *testing.T) {
	lib := cell.AMS035()
	nl := gates.New("t")
	a := nl.Net("a")
	b := nl.Net("b")
	x := nl.Net("x")
	y := nl.Net("y")
	nl.Inputs = []int{a, b}
	nl.Outputs = []int{y}
	nl.AddInstance("NAND2", []int{a, b}, x, 1)
	nl.AddInstance("INV", []int{x}, y, 2)
	st := ComputeStats(nl, lib)
	want := Stats{
		Cells:       2,
		Nets:        4,
		Literals:    3, // 2 + 1 pins
		Transistors: 6, // NAND2=4, INV=2
		Area:        27 + 18,
		Depth:       2,
		Critical:    0.08 + 0.06,
	}
	if st != want {
		t.Fatalf("ComputeStats = %+v, want %+v", st, want)
	}
	if !strings.Contains(st.String(), "2 cells") || !strings.Contains(st.String(), "depth 2") {
		t.Fatalf("Stats.String() = %q", st.String())
	}
}

func TestStatsFeedbackCut(t *testing.T) {
	// Depth must cut feedback like CriticalDelay does.
	nl := gates.New("seq")
	a := nl.Net("a")
	y := nl.Net("y")
	yb := nl.Net("yb")
	nl.Inputs = []int{a}
	nl.Outputs = []int{y}
	nl.AddInstance("C2", []int{a, yb}, y, 0)
	nl.AddInstance("INV", []int{y}, yb, 0)
	st := ComputeStats(nl, cell.AMS035())
	if st.Depth != 2 {
		t.Fatalf("Depth = %d, want 2 (a -> C2 -> INV, feedback cut)", st.Depth)
	}
}

func TestReportDiag(t *testing.T) {
	ds := Analyze(clean(), cell.AMS035())
	got := find(ds, "NL200")
	if len(got) != 1 || got[0].Severity != SevInfo {
		t.Fatalf("NL200 = %v, want one info diag", got)
	}
	if !strings.Contains(got[0].Message, "static report:") {
		t.Fatalf("NL200 message = %q", got[0].Message)
	}
}

func TestRender(t *testing.T) {
	d := Diag{
		Loc:      Loc{Inst: 12, Cell: "NAND2", Net: 3, Name: "a_r"},
		Severity: SevError,
		Code:     "NL004",
		Message:  "boom",
		Notes:    []string{"extra"},
	}
	got := d.Render("stack.opt")
	want := "stack.opt: g12(NAND2) net \"a_r\": error: NL004: boom\n\textra"
	if got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
	if NoLoc.String() != "" {
		t.Fatalf("NoLoc renders %q, want empty", NoLoc.String())
	}
}

func TestCodesRegistered(t *testing.T) {
	// Every code a pass can emit must be in the registry; the registry
	// must not contain stale entries either (checked by listing).
	emitted := []string{"NL000", "NL001", "NL002", "NL003", "NL004", "NL005",
		"NL006", "NL007", "NL008", "NL009", "NL010", "NL100", "NL101", "NL200"}
	for _, c := range emitted {
		if _, ok := Codes[c]; !ok {
			t.Errorf("code %s not registered", c)
		}
	}
	if len(Codes) != len(emitted) {
		t.Errorf("Codes has %d entries, want %d", len(Codes), len(emitted))
	}
}

func TestDeterministicOrder(t *testing.T) {
	nl := clean()
	nl.AddInstance("INV", []int{nl.Net("in")}, nl.Net("mid"), 0) // NL001
	nl.Net("t$1")
	nl.Net("t_1") // NL007
	lib := cell.AMS035()
	first := Format(Analyze(nl, lib), "t")
	for i := 0; i < 10; i++ {
		if got := Format(Analyze(nl, lib), "t"); got != first {
			t.Fatalf("non-deterministic output:\n%s\nvs\n%s", first, got)
		}
	}
}
