package balsabm

import (
	"strings"
	"testing"
)

// The public API supports the full quickstart path.
func TestFacadeQuickstart(t *testing.T) {
	body, err := ParseCH(`(rep (enc-early (p-to-p passive P)
	    (seq (p-to-p active A1) (p-to-p active A2))))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCH(body); err != nil {
		t.Fatal(err)
	}
	spec, err := CompileCH(&CHProgram{Name: "seq2", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if spec.NStates != 6 {
		t.Fatalf("states %d", spec.NStates)
	}
	ctrl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	lib := DefaultLibrary()
	nl, err := Map(ctrl, MapSpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := AuditMapped(ctrl, nl, lib); err != nil {
		t.Fatal(err)
	}
	if nl.Area(lib) <= 0 {
		t.Fatal("no area")
	}
}

// TestAuditMappedRejectsFlippedCells: AuditMapped rejects every
// single-cell flip of the quickstart sequencer's speed-split mapping —
// each cell swapped for its complement, which inverts the net it drives
// — with an error naming the first HZ finding.
func TestAuditMappedRejectsFlippedCells(t *testing.T) {
	body, err := ParseCH(`(rep (enc-early (p-to-p passive P)
	    (seq (p-to-p active A1) (p-to-p active A2))))`)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := CompileCH(&CHProgram{Name: "sequencer", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	lib := DefaultLibrary()
	complement := func(c string) string {
		switch {
		case c == "INV":
			return "BUF"
		case c == "BUF":
			return "INV"
		case strings.HasPrefix(c, "NAND"), strings.HasPrefix(c, "NOR"):
			return c[1:]
		case strings.HasPrefix(c, "AND"), strings.HasPrefix(c, "OR"):
			return "N" + c
		}
		t.Fatalf("no complement for cell %s", c)
		return ""
	}
	mapped, err := Map(ctrl, MapSpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mapped.Instances); n != 29 {
		t.Fatalf("quickstart sequencer maps to %d cells, want 29", n)
	}
	for i := range mapped.Instances {
		nl, err := Map(ctrl, MapSpeedSplit, lib)
		if err != nil {
			t.Fatal(err)
		}
		inst := &nl.Instances[i]
		from := inst.Cell
		inst.Cell = complement(from)
		err = AuditMapped(ctrl, nl, lib)
		if err == nil {
			t.Errorf("cell %d (%s -> %s): tampered mapping passes AuditMapped", i, from, inst.Cell)
		} else if !strings.HasPrefix(err.Error(), "hazver: sequencer: fn ") {
			t.Errorf("cell %d: error %q does not name the finding", i, err)
		}
	}
}

func TestFacadeDesigns(t *testing.T) {
	if len(Designs()) != 4 {
		t.Fatalf("want 4 designs")
	}
	d, err := DesignByName("stack")
	if err != nil {
		t.Fatal(err)
	}
	before := d.Control()
	after, rep, err := Optimize(before)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Components) >= len(before.Components) {
		t.Fatal("no clustering")
	}
	if len(rep.Merges) == 0 {
		t.Fatal("no merges reported")
	}
}

func TestFacadeBalsa(t *testing.T) {
	src, err := BalsaSource("counter8")
	if err != nil {
		t.Fatal(err)
	}
	n, err := CompileBalsa(src, "counter8")
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats().Control != 6 {
		t.Fatalf("control components: %d", n.Stats().Control)
	}
}

func TestFacadeVerify(t *testing.T) {
	x, err := ParseCHProgram(`(program act (rep (enc-early (p-to-p passive a) (p-to-p active c))))`)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ParseCHProgram(`(program low (rep (enc-early (p-to-p passive c) (p-to-p active d))))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyActivationChannelRemoval("c", x, y); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRunDesign(t *testing.T) {
	d, err := DesignByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedImprovement() <= 0 || r.AreaOverhead() <= 0 {
		t.Fatalf("improvement %.2f%%, overhead %.2f%%", r.SpeedImprovement(), r.AreaOverhead())
	}
	table := Table3([]*DesignResult{r})
	if !strings.Contains(table, "systolic-counter") {
		t.Fatalf("table:\n%s", table)
	}
}
