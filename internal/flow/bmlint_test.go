package flow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"balsabm/internal/bmlint"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/hazver"
)

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
				results, err := BmlintNetlist(context.Background(), arm, d.Control(), nil)
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

// TestAuditSixCheckerStack: the audit reports the flow's four checker
// tiers on the netlists the flow ships, and the paper designs pass
// clean at the spec tier and the static hazard tier. bmlint checks one
// spec per component per arm — exactly the specs the audit's compile
// stage compiled. The netlint circuits, hazver bursts and finding
// counts are pinned at the values the audit reported when it
// synthesized every shape a second time, so checking the shipped
// netlists instead loses no finding. The baseline arm ships
// hand-library circuits only, which carry no burst provenance, so its
// hazver report skips every controller (simulation covers them) and
// the optimized arm's verifies bursts.
func TestAuditSixCheckerStack(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full audit of every design")
	}
	want := map[string]map[string]CheckerCount{
		"systolic-counter": {"chlint": {0, 0, 1}, "bmlint": {0, 0, 7}, "netlint": {0, 0, 9}, "hazver": {0, 0, 360}},
		"wagging-register": {"chlint": {0, 1, 1}, "bmlint": {0, 0, 21}, "netlint": {0, 104, 23}, "hazver": {0, 0, 628}},
		"stack":            {"chlint": {0, 0, 1}, "bmlint": {0, 0, 16}, "netlint": {0, 60, 18}, "hazver": {0, 0, 1224}},
		"ssem":             {"chlint": {0, 1, 1}, "bmlint": {0, 0, 14}, "netlint": {0, 102, 16}, "hazver": {0, 0, 404}},
	}
	for _, d := range designs.All() {
		met := &Metrics{}
		a, err := AuditDesign(d, &Options{Metrics: met})
		if err != nil {
			t.Fatal(err)
		}
		got := a.Checkers()
		if !reflect.DeepEqual(got, want[d.Name]) {
			t.Errorf("%s: checkers %v, want %v", d.Name, got, want[d.Name])
		}
		if n := met.Timings.Snapshot()["compile"].Count; int64(got["bmlint"].Checked) != n {
			t.Errorf("%s: bmlint checked %d specs, the compile stage ran %d times", d.Name, got["bmlint"].Checked, n)
		}
		sum := a.Summary()
		for _, part := range []string{"chlint ", "bmlint ", "netlint ", "hazver "} {
			if !strings.Contains(sum, part) {
				t.Errorf("summary misses %q: %s", part, sum)
			}
		}
		if len(a.Hazver) != 2 {
			t.Errorf("%s: audit recorded %d hazver reports, want one per arm", d.Name, len(a.Hazver))
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
}

// BenchmarkAuditDesign is one `balsabm -j 1 audit`: the four Table 3
// designs audited one after another at one worker.
func BenchmarkAuditDesign(b *testing.B) {
	all := designs.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range all {
			a, err := AuditDesign(d, &Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !a.OK() {
				b.Fatal(a.Summary())
			}
		}
	}
}

// TestAuditReportsGateErrors: a spec with a BM-error ends its arm at
// the bmlint gate, and the audit reports the finding, under the gate's
// unit, instead of failing: nothing past the gate ran, so the arm has
// no netlint circuits and no hazver report.
func TestAuditReportsGateErrors(t *testing.T) {
	n, err := core.ParseNetlist(`(program m (rep (mutex (enc-early (p-to-p passive a) (p-to-p active x)) (enc-early (p-to-p passive a) (p-to-p active y)))))`)
	if err != nil {
		t.Fatal(err)
	}
	d := &designs.Design{Name: "bad", Control: n.Clone}
	a, err := AuditDesign(d, nil)
	if err != nil {
		t.Fatalf("a gate error must land in the audit, not fail it: %v", err)
	}
	if a.OK() {
		t.Fatalf("audit passes a BM-error spec: %s", a.Summary())
	}
	if bm := a.Checkers()["bmlint"]; bm.Errors != 2 || bm.Checked != 2 {
		t.Errorf("bmlint %+v, want one BM-error in each arm's one spec", bm)
	}
	if len(a.Circuits) != 0 || len(a.Hazver) != 0 {
		t.Errorf("gates past bmlint ran: %d circuits, %d hazver reports", len(a.Circuits), len(a.Hazver))
	}
	for _, unit := range []string{"bad.unopt.m: state 0: error: BM004", "bad.opt.m: state 0: error: BM004"} {
		if !strings.Contains(a.Details(), unit) {
			t.Errorf("details miss %q:\n%s", unit, a.Details())
		}
	}
}
