package bmlint

import (
	"strings"
	"testing"

	"balsabm/internal/bm"
)

func b(sigs ...string) bm.Burst {
	var out bm.Burst
	for _, s := range sigs {
		rise := strings.HasSuffix(s, "+")
		out = append(out, bm.Sig{Name: s[:len(s)-1], Rise: rise})
	}
	return out
}

// clean returns a minimal well-formed two-state machine.
func clean() *bm.Spec {
	return &bm.Spec{
		Name:    "clean",
		Inputs:  []string{"a"},
		Outputs: []string{"y"},
		NStates: 2,
		Arcs: []bm.Arc{
			{From: 0, To: 1, In: b("a+"), Out: b("y+")},
			{From: 1, To: 0, In: b("a-"), Out: b("y-")},
		},
	}
}

func codes(ds []Diag) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(ds []Diag, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestCleanSpecOnlyBM200(t *testing.T) {
	ds := Analyze(clean())
	if len(ds) != 1 || ds[0].Code != "BM200" || ds[0].Severity != SevInfo {
		t.Fatalf("clean spec diags = %v", codes(ds))
	}
}

func TestErrorTierMirrorsViolations(t *testing.T) {
	sp := clean()
	sp.Arcs[0].In = nil // empty input burst
	sp.Inputs = []string{"a", "unused"}
	ds := Analyze(sp)
	if !hasCode(ds, "BM001") {
		t.Fatalf("want BM001, got %v", codes(ds))
	}
	if !hasCode(ds, "BM104") {
		t.Fatalf("want BM104 for unused input, got %v", codes(ds))
	}
	if !HasErrors(ds) {
		t.Fatal("HasErrors = false")
	}
	// Every violation code must agree with bm.Check's first error.
	err := sp.Check()
	if err == nil {
		t.Fatal("Check passed on broken spec")
	}
	var first *Diag
	for i := range ds {
		if ds[i].Severity == SevError {
			first = &ds[i]
			break
		}
	}
	if first == nil || !strings.Contains(err.Error(), first.Message) {
		t.Fatalf("Check error %q does not contain first BM-error %q", err, first.Message)
	}
}

func TestEntryPassBM100(t *testing.T) {
	// Two parallel arcs 0 -> 1 with different output bursts, values
	// reconverging (y+ then z+, vs z+ then y+ won't reconverge — use
	// bursts that toggle both outputs in one go on one arc).
	sp := &bm.Spec{
		Name:    "entry",
		Inputs:  []string{"a", "c"},
		Outputs: []string{"y", "z"},
		NStates: 2,
		Arcs: []bm.Arc{
			{From: 0, To: 1, In: b("a+"), Out: b("y+", "z+")},
			{From: 0, To: 1, In: b("c+"), Out: b("z+", "y+")}, // same set, different order: no BM100
			{From: 1, To: 0, In: b("a-", "c-"), Out: b("y-", "z-")},
		},
	}
	ds := Analyze(sp)
	if hasCode(ds, "BM100") {
		t.Fatalf("order-only difference fired BM100: %v", codes(ds))
	}
	// But those two arcs share From/To/Out, so they are mergeable.
	if !hasCode(ds, "BM101") {
		t.Fatalf("want BM101 for same-output siblings, got %v", codes(ds))
	}

	sp.Arcs[1].Out = b("y+", "z+") // still same; now make them differ
	sp.Arcs[0].Out = b("y+")
	sp.Arcs[0].In = b("a+", "c+")
	sp.Arcs[1].In = b("c+")
	// 0 -a+c+/y+-> 1 vs 0 -c+/y+z+-> 1: differing outs -> BM100 (and a
	// BM006 entry-value error, which is fine — the pass is independent).
	ds = Analyze(sp)
	if !hasCode(ds, "BM100") {
		t.Fatalf("want BM100 for differing parallel outs, got %v", codes(ds))
	}
	if hasCode(ds, "BM101") {
		t.Fatalf("differing outs still fired BM101: %v", codes(ds))
	}
}

func TestRedundantPassBM102(t *testing.T) {
	// States 1 and 2 behave identically (both return to 0 on a-/y-).
	sp := &bm.Spec{
		Name:    "redundant",
		Inputs:  []string{"a", "c"},
		Outputs: []string{"y"},
		NStates: 3,
		Arcs: []bm.Arc{
			{From: 0, To: 1, In: b("a+"), Out: b("y+")},
			{From: 0, To: 2, In: b("c+"), Out: b("y+")},
			{From: 1, To: 0, In: b("a-"), Out: b("y-")},
			{From: 2, To: 0, In: b("a-"), Out: b("y-")},
		},
	}
	ds := Analyze(sp)
	if !hasCode(ds, "BM102") {
		t.Fatalf("want BM102, got %v", codes(ds))
	}
	// The warning lands on the later state and names the earlier.
	for _, d := range ds {
		if d.Code == "BM102" {
			if d.Loc.State != 2 || !strings.Contains(d.Message, "state 1") {
				t.Fatalf("BM102 at %+v: %s", d.Loc, d.Message)
			}
		}
	}
}

func TestSignalsPassBM103(t *testing.T) {
	sp := clean()
	sp.Outputs = []string{"dead", "y"}
	ds := Analyze(sp)
	if !hasCode(ds, "BM103") {
		t.Fatalf("want BM103, got %v", codes(ds))
	}
}

func TestRenderStyle(t *testing.T) {
	cases := []struct {
		d    Diag
		want string
	}{
		{Diag{Loc: StateLoc(2), Severity: SevError, Code: "BM007", Message: "m"},
			"stack: state 2: error: BM007: m"},
		{Diag{Loc: Loc{State: 0, Arc: 1, ArcText: "0 -> 1 : a+ / y+", Sig: "a"},
			Severity: SevError, Code: "BM005", Message: "m"},
			`stack: arc 1 (0 -> 1 : a+ / y+) signal "a": error: BM005: m`},
		{Diag{Loc: SigLoc("req"), Severity: SevWarning, Code: "BM104", Message: "m"},
			`stack: signal "req": warning: BM104: m`},
		{Diag{Loc: NoLoc, Severity: SevInfo, Code: "BM200", Message: "m"},
			"stack: info: BM200: m"},
	}
	for _, c := range cases {
		if got := c.d.Render("stack"); got != c.want {
			t.Errorf("Render = %q, want %q", got, c.want)
		}
	}
	if NoLoc.String() != "" {
		t.Errorf("NoLoc renders %q, want empty", NoLoc.String())
	}
}

func TestLintSourceParseError(t *testing.T) {
	res := LintSource("not a spec\n")
	if len(res.Diags) != 1 || res.Diags[0].Code != "BM000" {
		t.Fatalf("diags = %v", codes(res.Diags))
	}
	if res.Diags[0].Severity != SevError {
		t.Fatalf("BM000 severity = %v", res.Diags[0].Severity)
	}
}

func TestLintSourceCleanSpec(t *testing.T) {
	sp := clean()
	res := LintSource(sp.String())
	if HasErrors(res.Diags) {
		t.Fatalf("round-tripped clean spec has errors:\n%s", Format(res.Diags, res.Name))
	}
	if res.Name != "clean" {
		t.Fatalf("Name = %q", res.Name)
	}
	if res.Stats.States != 2 || res.Stats.Arcs != 2 {
		t.Fatalf("Stats = %+v", res.Stats)
	}
}

func TestStatsPressure(t *testing.T) {
	st := Stats{Worst: "y", WorstN: 3, Budget: 20000}
	if st.Pressure() != "8" {
		t.Errorf("Pressure = %q", st.Pressure())
	}
	st.WorstN = 40
	if st.Pressure() != "2^40" {
		t.Errorf("Pressure = %q", st.Pressure())
	}
	if !strings.Contains(st.String(), "exceeds hfmin budget") {
		t.Errorf("String = %q, want exceeds", st.String())
	}
}

func TestDiagsSortedDeterministically(t *testing.T) {
	sp := clean()
	sp.Inputs = []string{"a", "u1", "u2"}
	sp.Outputs = []string{"d1", "y"}
	ds := Analyze(sp)
	for i := 1; i < len(ds); i++ {
		ai, bi := ds[i-1].Loc.Key()
		aj, bj := ds[i].Loc.Key()
		if ai > aj || (ai == aj && bi > bj) {
			t.Fatalf("diags out of order at %d: %v", i, codes(ds))
		}
	}
}

func TestEveryPassCodeRegistered(t *testing.T) {
	for _, p := range Passes() {
		if p.Name == "" || p.Doc == "" {
			t.Errorf("pass %+v missing name or doc", p)
		}
	}
	for k, v := range Codes {
		if v == "" {
			t.Errorf("code %s has no doc string", k)
		}
	}
	for _, code := range violationCode {
		if Codes[code] == "" {
			t.Errorf("violation code %s not registered", code)
		}
	}
	for k := bm.KindEmptyInput; k <= bm.KindDeclaration; k++ {
		if violationCode[k] == "" {
			t.Errorf("violation kind %d has no code", k)
		}
	}
}

// Declaration errors reach bmlint's stream with their own codes: BM010
// from the walk, BM000 from the parser.
func TestLintSourceDeclarations(t *testing.T) {
	for src, want := range map[string]string{
		"name x\ninput a 0\ninput a 0\noutput b 0\n0 1 a+ | b+\n1 0 a- | b-\n":  "BM010",
		"name x\ninput a 0\noutput a 0\noutput b 0\n0 1 a+ | b+\n1 0 a- | b-\n": "BM010",
		"name x\ninput a 1\noutput b 0\n0 1 a- | b+\n1 0 a+ | b-\n":             "BM000",
	} {
		res := LintSource(src)
		if len(res.Diags) == 0 || res.Diags[0].Code != want || res.Diags[0].Severity != SevError {
			t.Errorf("LintSource(%q): %v, want %s first", src, codes(res.Diags), want)
		}
	}
}
