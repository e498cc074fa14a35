package flow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/bmlint"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/hazver"
)

// armControl returns one arm's control netlist: the original for
// unopt, the clustered one for opt.
func armControl(t *testing.T, d *designs.Design, arm string) *core.Netlist {
	t.Helper()
	n := d.Control()
	if arm == "opt" {
		var err error
		n, _, err = core.OptimizeOpt(n, core.Options{})
		if err != nil {
			t.Fatalf("%s: clustering: %v", d.Name, err)
		}
	}
	return n
}

// TestBmlintGolden audits the compiled Burst-Mode specification of
// every component of every Table 3 design, both arms, and diffs the
// full report against examples/bmlint/<design>.bmlint. Run with
// -update to regenerate after an intentional output change (the flag
// is shared with the netlint goldens). The golden files double as the
// acceptance pin: every paper design must be BM-error-free, and any
// warning they contain is reviewed known-good.
func TestBmlintGolden(t *testing.T) {
	dir := "../../examples/bmlint"
	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var sb strings.Builder
			for _, arm := range []string{"unopt", "opt"} {
				results, err := BmlintNetlist(armControl(t, d, arm))
				if err != nil {
					t.Fatalf("%s.%s: %v", d.Name, arm, err)
				}
				for _, res := range results {
					unit := d.Name + "." + arm + "." + res.Name
					fmt.Fprintf(&sb, "== %s ==\n", unit)
					sb.WriteString(bmlint.Format(res.Diags, unit))
					if bmlint.HasErrors(res.Diags) {
						t.Errorf("%s has BM errors:\n%s", unit, bmlint.Format(res.Diags, unit))
					}
				}
			}
			got := sb.String()
			golden := filepath.Join(dir, d.Name+".bmlint")
			if *updateNetlint {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/flow -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("bmlint report changed for %s:\n--- got ---\n%s--- want ---\n%s",
					d.Name, got, want)
			}
		})
	}
}

// TestBmlintGateAborts: error-severity findings must abort the gate as
// a *GateError carrying the failing spec's diagnostics.
func TestBmlintGateAborts(t *testing.T) {
	results := []bmlint.Result{
		{Name: "good", Diags: []bmlint.Diag{
			{Loc: bmlint.NoLoc, Severity: bmlint.SevInfo, Code: "BM200", Message: "report"},
		}},
		{Name: "bad", Diags: []bmlint.Diag{
			{Loc: bmlint.StateLoc(3), Severity: bmlint.SevError, Code: "BM007", Message: "state 3 unreachable from start state 0"},
		}},
	}
	err := splitSpecs("fake", "opt", results, nil)
	if err == nil {
		t.Fatal("want gate error for BM-error finding")
	}
	var be *GateError[bmlint.Loc]
	if !errors.As(err, &be) {
		t.Fatalf("want *GateError[bmlint.Loc], got %T: %v", err, err)
	}
	if be.Unit() != "fake.opt.bad" {
		t.Errorf("Unit() = %q", be.Unit())
	}
	if !strings.Contains(be.Error(), "BM007") {
		t.Errorf("error text misses the code: %s", be.Error())
	}
}

// TestBmlintGateRecordsFindings: non-error findings (warnings, the
// BM200 static report) are recorded on the metrics sink and streamed
// through NotifyFindings, and the gate passes.
func TestBmlintGateRecordsFindings(t *testing.T) {
	results := []bmlint.Result{
		{Name: "warned", Diags: []bmlint.Diag{
			{Loc: bmlint.SigLoc("dead"), Severity: bmlint.SevWarning, Code: "BM103", Message: "output never toggled"},
			{Loc: bmlint.NoLoc, Severity: bmlint.SevInfo, Code: "BM200", Message: "report"},
		}},
	}
	met := &Metrics{}
	var streamed []Finding
	met.NotifyFindings(func(f Finding) { streamed = append(streamed, f) })
	if err := splitSpecs("fake", "opt", results, met); err != nil {
		t.Fatalf("warnings must not abort: %v", err)
	}
	got := met.Findings()
	if len(got) != len(streamed) || len(got) != 2 {
		t.Fatalf("want 2 recorded + streamed findings, got %d/%d: %v", len(got), len(streamed), got)
	}
	for _, f := range got {
		if f.Tier != TierBmlint || f.Unit() != "fake.opt.warned" {
			t.Errorf("finding unit = %q", f.Unit())
		}
	}
	// -stats surfaces them through String.
	if s := met.String(); !strings.Contains(s, "BM103") || !strings.Contains(s, "fake.opt.warned") {
		t.Errorf("metrics text misses bmlint findings:\n%s", s)
	}
}

// TestBmlintGateTimed: the in-flow gate passes on a Table 3 design's
// unoptimized control netlist, returns one spec per component, and
// observes one compile per component and one bmlint run for the audits.
func TestBmlintGateTimed(t *testing.T) {
	d := designs.All()[0]
	r := newRunner(nil, nil)
	n := d.Control()
	specs, results, err := r.bmlintGate(d.Name, "unopt", n)
	if err != nil {
		t.Fatalf("gate failed on paper design: %v", err)
	}
	if len(specs) != len(n.Components) || len(results) != len(n.Components) {
		t.Fatalf("gate returned %d specs and %d audits for %d components", len(specs), len(results), len(n.Components))
	}
	snap := r.met.Timings.Snapshot()
	if s, ok := snap["bmlint"]; !ok || s.Count != 1 {
		t.Errorf("bmlint stage not observed once: %+v", snap)
	}
	if s, ok := snap["compile"]; !ok || s.Count != int64(len(n.Components)) {
		t.Errorf("compile stage not observed once per component: %+v", snap)
	}
}

// TestAuditSixCheckerStack: the audit summary names all six checkers
// with per-checker counts, and the paper designs pass clean at the
// spec tier and the static hazard tier. hazver checks the netlists the
// flow ships: the baseline arm ships hand-library circuits only, which
// carry no burst provenance, so its report skips every controller
// (simulation covers them) and the optimized arm's verifies bursts.
func TestAuditSixCheckerStack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full design audit")
	}
	d := designs.All()[0]
	a, err := AuditDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := a.Summary()
	for _, part := range []string{"chlint ", "bmlint ", " covers; ", " mapped; ", "netlint ", "hazver "} {
		if !strings.Contains(sum, part) {
			t.Errorf("summary misses %q: %s", part, sum)
		}
	}
	if len(a.Specs) == 0 || a.SpecsChecked == 0 {
		t.Errorf("audit recorded no spec results: %d specs, %d checked", len(a.Specs), a.SpecsChecked)
	}
	if len(a.Hazver) != 2 {
		t.Errorf("audit recorded %d hazver reports, want one per arm", len(a.Hazver))
	}
	for _, h := range a.Hazver {
		if hazver.HasErrors(h.Diags) {
			t.Errorf("%s: paper-design arm has static hazards:\n%s", h.Name, hazver.Format(h.Diags, h.Name))
		}
	}
	if len(a.Hazver) == 2 {
		if st := a.Hazver[0].Stats; st.Units != 0 || st.Skipped == 0 || st.Bursts != 0 {
			t.Errorf("%s: want every hand-library controller skipped: %+v", a.Hazver[0].Name, st)
		}
		if st := a.Hazver[1].Stats; st.Units == 0 || st.Skipped != 0 || st.Bursts == 0 {
			t.Errorf("%s: want synthesized controllers verified: %+v", a.Hazver[1].Name, st)
		}
	}
	for _, s := range a.Specs {
		if bmlint.HasErrors(s.Diags) {
			t.Errorf("%s: paper-design spec has BM errors:\n%s", s.Name, bmlint.Format(s.Diags, s.Name))
		}
	}
}
