package flow

import (
	"errors"
	"strings"
	"testing"

	"balsabm/internal/analysis"
	"balsabm/internal/ch"
	"balsabm/internal/core"
)

func TestLintGateAborts(t *testing.T) {
	n, err := core.ParseNetlist(`
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active up))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active up))))
`)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	gateErr := LintNetlist(n, "broken", met)
	if gateErr == nil {
		t.Fatal("want gate error for multiply-driven channel")
	}
	var le *GateError[ch.Pos]
	if !errors.As(gateErr, &le) {
		t.Fatalf("want *GateError[ch.Pos], got %T: %v", gateErr, gateErr)
	}
	if len(le.Diags) != 1 || le.Diags[0].Code != "CH010" {
		t.Fatalf("unexpected gate diags: %v", le.Diags)
	}
	if !strings.Contains(le.Error(), "CH010") {
		t.Errorf("error text misses the code: %s", le.Error())
	}
	// The lint stage is timed like any other.
	if s, ok := met.Timings.Snapshot()["lint"]; !ok || s.Count != 1 {
		t.Errorf("lint stage not observed: %+v", met.Timings.Snapshot())
	}
}

func TestLintGateRecordsWarnings(t *testing.T) {
	n, err := core.ParseNetlist(`
(program a (rep (enc-early (p-to-p passive go_a) (p-to-p active out_a))))
(program b (rep (enc-early (p-to-p passive go_b) (p-to-p active out_b))))
`)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	var streamed []Finding
	met.NotifyFindings(func(f Finding) { streamed = append(streamed, f) })
	if err := LintNetlist(n, "warned", met); err != nil {
		t.Fatalf("warnings must not abort: %v", err)
	}
	got := met.Findings()
	if len(got) != 2 || len(streamed) != 2 {
		t.Fatalf("want 2 recorded + 2 streamed CH013 findings, got %d/%d", len(got), len(streamed))
	}
	for _, f := range got {
		d, ok := f.Diag.(analysis.Diag)
		if !ok || f.Tier != TierLint || f.Design != "warned" || f.Code != "CH013" || d.Severity != analysis.SevWarning {
			t.Errorf("unexpected finding %+v", f)
		}
	}
	// -stats surfaces them through String.
	if s := met.String(); !strings.Contains(s, "CH013") || !strings.Contains(s, "warned") {
		t.Errorf("metrics text misses lint findings:\n%s", s)
	}
}
