package diag

import (
	"fmt"
	"testing"
)

// tightLoc mimics a source position: attaches directly to the unit.
type tightLoc struct{ line, col int }

func (l tightLoc) Fragment() (string, bool) {
	if l.line == 0 {
		return "", true
	}
	return fmt.Sprintf("%d:%d", l.line, l.col), true
}
func (l tightLoc) Key() (int, int) { return l.line, l.col }

// looseLoc mimics a structural location: space-separated from the unit.
type looseLoc struct{ name string }

func (l looseLoc) Fragment() (string, bool) { return l.name, false }
func (l looseLoc) Key() (int, int)          { return len(l.name), 0 }

func TestSeverityString(t *testing.T) {
	cases := map[Severity]string{
		SevError:    "error",
		SevWarning:  "warning",
		SevInfo:     "info",
		Severity(7): "Severity(7)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", int(s), got, want)
		}
		if s <= SevInfo {
			if got := ParseSeverity(want); got != s {
				t.Errorf("ParseSeverity(%q) = %v, want %v", want, got, s)
			}
		}
	}
	if got := ParseSeverity("fatal"); got.String() != "Severity(-1)" {
		t.Errorf("ParseSeverity of an unknown name = %v, want an out-of-range severity", got)
	}
}

func TestRenderTight(t *testing.T) {
	d := Diag[tightLoc]{Loc: tightLoc{3, 5}, Severity: SevError, Code: "XX001",
		Message: "boom", Notes: []string{"extra"}}
	cases := []struct{ unit, want string }{
		{"f.ch", "f.ch:3:5: error: XX001: boom\n\textra"},
		{"", "3:5: error: XX001: boom\n\textra"},
	}
	for _, c := range cases {
		if got := d.Render(c.unit); got != c.want {
			t.Errorf("Render(%q) = %q, want %q", c.unit, got, c.want)
		}
	}
	// Zero location: no position, no stray space.
	z := Diag[tightLoc]{Severity: SevWarning, Code: "XX002", Message: "m"}
	if got := z.Render(""); got != "warning: XX002: m" {
		t.Errorf("zero-loc Render = %q", got)
	}
	if got := z.Render("f.ch"); got != "f.ch: warning: XX002: m" {
		t.Errorf("zero-loc Render with unit = %q", got)
	}
}

func TestRenderLoose(t *testing.T) {
	d := Diag[looseLoc]{Loc: looseLoc{"g12(NAND2)"}, Severity: SevError,
		Code: "XX004", Message: "boom"}
	if got := d.Render("stack.opt"); got != "stack.opt: g12(NAND2): error: XX004: boom" {
		t.Errorf("Render = %q", got)
	}
	if got := d.Render(""); got != "g12(NAND2): error: XX004: boom" {
		t.Errorf("Render without unit = %q", got)
	}
	if got := d.String(); got != "g12(NAND2): error: XX004: boom" {
		t.Errorf("String = %q", got)
	}
}

func TestReporterAndSort(t *testing.T) {
	r := &Reporter[tightLoc]{}
	r.Warnf(tightLoc{5, 1}, "XX010", "later")
	r.Note("attached to later")
	r.Errorf(tightLoc{2, 9}, "XX011", "earlier")
	r.Infof(tightLoc{2, 1}, "XX012", "earliest")
	ds := r.Diags()
	if len(ds) != 3 {
		t.Fatalf("got %d diags, want 3", len(ds))
	}
	if len(ds[0].Notes) != 1 || ds[0].Notes[0] != "attached to later" {
		t.Fatalf("Note went to %+v", ds[0])
	}
	Sort(ds)
	want := []string{"earliest", "earlier", "later"}
	for i, m := range want {
		if ds[i].Message != m {
			t.Errorf("after Sort, ds[%d].Message = %q, want %q", i, ds[i].Message, m)
		}
	}

	e, w, in := Count(ds)
	if e != 1 || w != 1 || in != 1 {
		t.Errorf("Count = %d/%d/%d, want 1/1/1", e, w, in)
	}
	if !HasErrors(ds) {
		t.Error("HasErrors = false, want true")
	}
	if !HasCode(ds, "XX011") || HasCode(ds, "XX999") {
		t.Error("HasCode wrong")
	}
}

func TestSortTiesOnCodeAndMessage(t *testing.T) {
	ds := []Diag[tightLoc]{
		{Loc: tightLoc{1, 1}, Code: "B", Message: "z"},
		{Loc: tightLoc{1, 1}, Code: "B", Message: "a"},
		{Loc: tightLoc{1, 1}, Code: "A", Message: "m"},
	}
	Sort(ds)
	got := ds[0].Code + ds[1].Message + ds[2].Message
	if got != "A"+"a"+"z" {
		t.Errorf("tie-break order wrong: %+v", ds)
	}
}

func TestNoteOnEmptyReporter(t *testing.T) {
	r := &Reporter[looseLoc]{}
	r.Note("dropped") // must not panic
	if len(r.Diags()) != 0 {
		t.Fatal("Note on empty reporter created a diag")
	}
}

func TestFormat(t *testing.T) {
	ds := []Diag[looseLoc]{
		{Loc: looseLoc{"a"}, Severity: SevError, Code: "XX001", Message: "one"},
		{Loc: looseLoc{"bb"}, Severity: SevInfo, Code: "XX002", Message: "two"},
	}
	want := "u: a: error: XX001: one\nu: bb: info: XX002: two\n"
	if got := Format(ds, "u"); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}
