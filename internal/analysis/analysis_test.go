package analysis

import (
	"strings"
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/diag"
)

// lint is a test helper asserting the source lints without parse
// failure and returning the diagnostics.
func lint(t *testing.T, src string) []Diag {
	t.Helper()
	ds := LintSource(src)
	for _, d := range ds {
		if d.Code == "CH000" {
			t.Fatalf("unexpected parse failure: %s", d)
		}
	}
	return ds
}

// codesOf extracts the sorted diag codes for compact assertions.
func codesOf(ds []Diag) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

func wantCodes(t *testing.T, ds []Diag, want ...string) {
	t.Helper()
	got := codesOf(ds)
	if len(got) != len(want) {
		t.Fatalf("got %d diags %v, want %v\n%s", len(got), got, want, Format(ds, ""))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diag %d is %s, want %s\n%s", i, got[i], want[i], Format(ds, ""))
		}
	}
}

// TestLegalityReportsAll: three distinct Table 1 violations in one
// program all surface, each at its own line:col — the acceptance
// criterion for the issue.
func TestLegalityReportsAll(t *testing.T) {
	src := `(seq
  (mutex (p-to-p active e) (p-to-p active f))
  (enc-late (p-to-p active c) (p-to-p passive d))
  (seq-ov (p-to-p passive a) (p-to-p active b)))`
	ds := lint(t, src)
	var errs []Diag
	for _, d := range ds {
		if d.Code == "CH001" {
			errs = append(errs, d)
		}
	}
	if len(errs) != 3 {
		t.Fatalf("want 3 CH001 errors, got %d:\n%s", len(errs), Format(ds, ""))
	}
	wantPos := []ch.Pos{{Line: 2, Col: 3}, {Line: 3, Col: 3}, {Line: 4, Col: 3}}
	for i, d := range errs {
		if d.Loc != wantPos[i] {
			t.Errorf("violation %d at %s, want %s", i, d.Loc, wantPos[i])
		}
		if len(d.Notes) == 0 || !strings.Contains(d.Notes[0], "Table 1 row") {
			t.Errorf("violation %d missing Table 1 row note: %v", i, d.Notes)
		}
	}
}

func TestLegalityStructural(t *testing.T) {
	ds := lint(t, "(seq (break) (p-to-p active a))")
	found := false
	for _, d := range ds {
		if d.Code == "CH002" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH002 for break outside rep:\n%s", Format(ds, ""))
	}

	ds = lint(t, "(mult-req passive m 0)")
	wantCodes(t, ds, "CH004")
}

func TestMuxArmLegality(t *testing.T) {
	// mux-ack's implicit first argument is active; seq-ov then needs an
	// active second argument.
	ds := lint(t, "(mux-ack m (seq-ov (p-to-p passive x)))")
	if len(ds) == 0 || ds[0].Code != "CH001" {
		t.Fatalf("want CH001 on mux arm:\n%s", Format(ds, ""))
	}
	if !strings.Contains(ds[0].Message, "implicit first argument") {
		t.Errorf("message should mention the implicit first argument: %s", ds[0].Message)
	}
}

func TestChannelsPass(t *testing.T) {
	// "up" is active at both ends: multiply driven.
	src := `(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))`
	ds := lint(t, src)
	var got []string
	for _, d := range ds {
		if d.Severity == SevError {
			got = append(got, d.Code)
		}
	}
	if len(got) != 1 || got[0] != "CH010" {
		t.Fatalf("want exactly CH010, got %v:\n%s", got, Format(ds, ""))
	}

	// Three components on one channel.
	src = `(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active x))))
(program b (rep (enc-early (p-to-p passive x) (p-to-p active out_b))))
(program c (rep (enc-early (p-to-p passive x) (p-to-p active out_c))))`
	ds = lint(t, src)
	found := false
	for _, d := range ds {
		if d.Code == "CH011" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH011 for 3-component channel:\n%s", Format(ds, ""))
	}

	// Conflicting kinds across components.
	src = `(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active x))))
(program b (rep (enc-early (mult-req passive x 2) (p-to-p active done))))`
	ds = lint(t, src)
	found = false
	for _, d := range ds {
		if d.Code == "CH012" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH012 for kind conflict:\n%s", Format(ds, ""))
	}

	// Disconnected component.
	src = `(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active link))))
(program b (rep (enc-early (p-to-p passive link) (p-to-p active out))))
(program c (rep (enc-early (p-to-p passive other) (p-to-p active thing))))`
	ds = lint(t, src)
	found = false
	for _, d := range ds {
		if d.Code == "CH013" && strings.Contains(d.Message, `"c"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH013 for component c:\n%s", Format(ds, ""))
	}

	// Two components with one name: one CH014 error at the later
	// declaration, with a note at the first.
	src = `(program a (rep (enc-early (p-to-p passive go) (p-to-p active c))))
(program b (rep (enc-early (p-to-p passive c) (p-to-p active out))))
(program a (rep (enc-early (p-to-p passive go2) (p-to-p active out2))))`
	ds = lint(t, src)
	var dups []Diag
	for _, d := range ds {
		if d.Code == "CH014" {
			dups = append(dups, d)
		}
	}
	if len(dups) != 1 || dups[0].Severity != SevError || dups[0].Loc.Line != 3 ||
		len(dups[0].Notes) != 1 || !strings.Contains(dups[0].Notes[0], "at 1:1") {
		t.Fatalf("want one CH014 error at line 3 with a note at 1:1:\n%s", Format(ds, ""))
	}
}

func TestUnreachablePass(t *testing.T) {
	ds := lint(t, "(rep (seq (break) (p-to-p active a)))")
	// CH020 on the dead code, CH022 on the at-most-once rep.
	var codes []string
	for _, d := range ds {
		codes = append(codes, d.Code)
	}
	has := func(c string) bool {
		for _, x := range codes {
			if x == c {
				return true
			}
		}
		return false
	}
	if !has("CH020") || !has("CH022") {
		t.Fatalf("want CH020 and CH022, got %v:\n%s", codes, Format(ds, ""))
	}

	ds = lint(t, `(seq
  (rep (enc-early (p-to-p passive p) (p-to-p active a)))
  (p-to-p active never))`)
	found := false
	for _, d := range ds {
		if d.Code == "CH021" && d.Loc == (ch.Pos{Line: 3, Col: 3}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH021 at 3:3:\n%s", Format(ds, ""))
	}

	// A rep whose body can break is fine.
	ds = lint(t, "(seq (rep (mutex (p-to-p passive go) (seq (p-to-p passive stop) (break)))) (p-to-p active done))")
	for _, d := range ds {
		if d.Code == "CH021" || d.Code == "CH020" {
			t.Fatalf("escaping rep flagged unreachable:\n%s", Format(ds, ""))
		}
	}
}

func TestMutexPass(t *testing.T) {
	ds := lint(t, "(mutex (p-to-p passive g) (seq (p-to-p passive g) (p-to-p active a)))")
	found := false
	for _, d := range ds {
		if d.Code == "CH030" && strings.Contains(d.Message, `"g"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH030 for shared guard g:\n%s", Format(ds, ""))
	}

	// Distinct guards: clean.
	ds = lint(t, "(mutex (p-to-p passive g1) (p-to-p passive g2))")
	for _, d := range ds {
		if d.Code == "CH030" {
			t.Fatalf("distinct guards flagged:\n%s", Format(ds, ""))
		}
	}
}

func TestVerbPass(t *testing.T) {
	// r rises twice with no fall in between.
	ds := lint(t, "(verb ((i r +)) ((i r +)) ((i r -)) ((i r -)))")
	found := false
	for _, d := range ds {
		if d.Code == "CH040" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH040:\n%s", Format(ds, ""))
	}

	// Odd edge count: signal left high.
	ds = lint(t, "(verb ((i r +)) () () ())")
	found = false
	for _, d := range ds {
		if d.Code == "CH041" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH041:\n%s", Format(ds, ""))
	}

	// No transitions at all.
	ds = lint(t, "(verb () () () ())")
	wantCodes(t, ds, "CH042")

	// Empty first event: activity inferred later.
	ds = lint(t, "(verb () ((i r +)) ((i r -)) ())")
	wantCodes(t, ds, "CH043")
}

func TestClusterAdvisories(t *testing.T) {
	// T1: "act" is an internal hideable channel.
	src := `(program caller (rep (enc-early (p-to-p passive go) (p-to-p active act))))
(program callee (rep (enc-early (p-to-p passive act) (p-to-p active out))))`
	ds := lint(t, src)
	found := false
	for _, d := range ds {
		if d.Code == "CH100" && strings.Contains(d.Message, `"act"`) {
			if d.Severity != SevInfo {
				t.Errorf("CH100 severity %s, want info", d.Severity)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH100 advisory:\n%s", Format(ds, ""))
	}

	// T2: two-way call shape.
	ds = lint(t, `(program callmux
  (rep (mutex (enc-early (p-to-p passive c1) (p-to-p active b))
              (enc-early (p-to-p passive c2) (p-to-p active b)))))`)
	found = false
	for _, d := range ds {
		if d.Code == "CH101" && strings.Contains(d.Message, "2-way call") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want CH101 advisory:\n%s", Format(ds, ""))
	}

	// CH101 names only what T2 splits (ch.CallShape): arms enclosed by
	// enc-middle or enc-late, or a body without rep, are no call.
	for _, src := range []string{
		`(program midcall
  (rep (mutex (enc-middle (p-to-p passive c1) (p-to-p active b))
              (enc-middle (p-to-p passive c2) (p-to-p active b)))))`,
		`(program latecall
  (rep (mutex (enc-late (p-to-p passive c1) (p-to-p active b))
              (enc-late (p-to-p passive c2) (p-to-p active b)))))`,
		`(program onecall
  (mutex (enc-early (p-to-p passive c1) (p-to-p active b))
         (enc-early (p-to-p passive c2) (p-to-p active b))))`,
	} {
		if ds := lint(t, src); diag.HasCode(ds, "CH101") {
			t.Errorf("CH101 on a shape T2 does not split:\n%s", Format(ds, ""))
		}
	}
}

func TestParseFailureIsCH000(t *testing.T) {
	ds := LintSource("(rep\n  (p-to-p sideways x))")
	wantCodes(t, ds, "CH000")
	if ds[0].Loc != (ch.Pos{Line: 2, Col: 11}) {
		t.Errorf("CH000 at %s, want 2:11", ds[0].Loc)
	}

	ds = LintSource("(rep (p-to-p passive x)")
	wantCodes(t, ds, "CH000")
	if !ds[0].Loc.IsValid() {
		t.Error("sexp syntax error lost its position")
	}

	ds = LintSource("")
	wantCodes(t, ds, "CH000")
}

// TestDeterministicOrder: two runs produce byte-identical output, and
// diagnostics are position-sorted.
func TestDeterministicOrder(t *testing.T) {
	src := `(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))
(program c (seq-ov (p-to-p passive x) (p-to-p active y)))`
	first := Format(LintSource(src), "test.ch")
	for i := 0; i < 20; i++ {
		if got := Format(LintSource(src), "test.ch"); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	ds := LintSource(src)
	for i := 1; i < len(ds); i++ {
		a, b := ds[i-1].Loc, ds[i].Loc
		if a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col) {
			t.Fatalf("diags out of order: %s before %s", ds[i-1], ds[i])
		}
	}
}

// TestCleanProgram: a well-formed design lints clean of errors.
func TestCleanProgram(t *testing.T) {
	ds := lint(t, `(rep
  (enc-early (p-to-p passive activate)
    (seq (p-to-p active left) (p-to-p active right))))`)
	if HasErrors(ds) {
		t.Fatalf("clean program reported errors:\n%s", Format(ds, ""))
	}
}

func TestRenderAndCodes(t *testing.T) {
	d := Diag{Loc: ch.Pos{Line: 3, Col: 7}, Severity: SevError, Code: "CH001",
		Message: "illegal combination", Notes: []string{"Table 1 row seq-ov: ..."}}
	got := d.Render("f.ch")
	want := "f.ch:3:7: error: CH001: illegal combination\n\tTable 1 row seq-ov: ..."
	if got != want {
		t.Errorf("Render:\n%q\nwant\n%q", got, want)
	}
	// Zero position: no bogus 0:0.
	if s := (Diag{Severity: SevWarning, Code: "CH013", Message: "m"}).Render(""); s != "warning: CH013: m" {
		t.Errorf("zero-pos render: %q", s)
	}

	// Every code a pass can emit is documented.
	for _, c := range sortedCodes() {
		if Codes[c] == "" {
			t.Errorf("code %s has empty doc", c)
		}
	}
	if len(sortedCodes()) < 15 {
		t.Errorf("code table suspiciously small: %d", len(sortedCodes()))
	}
}
