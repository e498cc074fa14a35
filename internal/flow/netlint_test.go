package flow

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
)

var updateNetlint = flag.Bool("update", false, "rewrite the golden files under examples/{bmlint,netlint,hazver} and internal/hfmin/testdata/table3.hfp")

// checkedArmOf runs one arm of a design through the checked arm (the
// opt arm clustered with the given state limit) and returns it, also
// when a netlint or hazver gate fails on it; its Netlint is the audit
// of the arm's one merged circuit.
func checkedArmOf(t *testing.T, d *designs.Design, arm string, maxStates int) *CheckedArm {
	t.Helper()
	opt := &Options{Cluster: core.Options{MaxStates: maxStates}}
	c, err := SynthesizeCheckedCtx(context.Background(), d.Name, arm, d.Control(), opt)
	if c == nil || c.Merged == nil {
		t.Fatalf("%s.%s: synthesis: %v", d.Name, arm, err)
	}
	return c
}

// TestNetlintGolden audits the merged circuit of every Table 3 design,
// both arms, and diffs the full report (static stats plus rendered
// diagnostics) against examples/netlint/<design>.netlint. Run with
// -update to regenerate after an intentional output change. The golden
// files double as the satellite-4 pin: any warning they contain is
// reviewed known-good, and new findings fail this test.
func TestNetlintGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design")
	}
	dir := "../../examples/netlint"
	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var sb strings.Builder
			for _, arm := range []string{"unopt", "opt"} {
				res := checkedArmOf(t, d, arm, 0).Netlint
				fmt.Fprintf(&sb, "== %s ==\n", res.Name)
				fmt.Fprintf(&sb, "static: %s\n", res.Stats)
				sb.WriteString(netlint.Format(res.Diags, res.Name))
				if netlint.HasErrors(res.Diags) {
					t.Errorf("%s has NL errors:\n%s", res.Name, netlint.Format(res.Diags, res.Name))
				}
			}
			got := sb.String()
			golden := filepath.Join(dir, d.Name+".netlint")
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
				t.Errorf("netlint report changed for %s:\n--- got ---\n%s--- want ---\n%s",
					d.Name, got, want)
			}
		})
	}
}

// TestNetlintCleanAllClusterVariants: the acceptance bar — zero
// NL-errors on every Table 3 design, optimized arm, across the
// clustering state-limit variants (unbounded, 8, 4).
func TestNetlintCleanAllClusterVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design at three state limits")
	}
	for _, d := range designs.All() {
		for _, maxStates := range []int{0, 8, 4} {
			res := checkedArmOf(t, d, "opt", maxStates).Netlint
			if netlint.HasErrors(res.Diags) {
				t.Errorf("%s maxStates=%d has NL errors:\n%s",
					d.Name, maxStates, netlint.Format(res.Diags, res.Name))
			}
		}
	}
}

// TestNetlintGateAborts: an injected defect — a second driver on one
// controller output — must abort the gate as a *GateError carrying
// the gate-precise diagnostic, before any simulation runs.
func TestNetlintGateAborts(t *testing.T) {
	nl := gates.New("bad")
	in := nl.Net("req")
	out := nl.Net("ack")
	nl.Inputs = []int{in}
	nl.Outputs = []int{out}
	nl.AddInstance("INV", []int{in}, out, 0)
	nl.AddInstance("BUF", []int{in}, out, 0) // second driver

	r := newRunner(nil, nil)
	_, err := NetlintGate("fake", "unopt", []*gates.Netlist{nl}, r.opt.Lib, r.met)
	if err == nil {
		t.Fatal("want gate error for multiply-driven net")
	}
	var ne *GateError[netlint.Loc]
	if !errors.As(err, &ne) {
		t.Fatalf("want *GateError[netlint.Loc], got %T: %v", err, err)
	}
	if ne.Unit() != "fake.unopt" {
		t.Errorf("Unit() = %q", ne.Unit())
	}
	found := false
	for _, d := range ne.Diags {
		if d.Code == "NL001" && d.Loc.Name == "ack" {
			found = true
		}
	}
	if !found {
		t.Errorf("gate diags miss NL001 at net ack: %v", ne.Diags)
	}
	if !strings.Contains(ne.Error(), "NL001") {
		t.Errorf("error text misses the code: %s", ne.Error())
	}
	// The netlint stage is timed like any other.
	if s, ok := r.met.Timings.Snapshot()["netlint"]; !ok || s.Count != 1 {
		t.Errorf("netlint stage not observed: %+v", r.met.Timings.Snapshot())
	}
}

// TestNetlintGateRecordsFindings: non-error findings (a dead gate, the
// NL200 static report) are recorded on the metrics sink and streamed
// through NotifyFindings, and the gate passes.
func TestNetlintGateRecordsFindings(t *testing.T) {
	nl := gates.New("warned")
	in := nl.Net("req")
	out := nl.Net("ack")
	dead := nl.Net("dead")
	nl.Inputs = []int{in}
	nl.Outputs = []int{out}
	nl.AddInstance("INV", []int{in}, out, 0)
	nl.AddInstance("INV", []int{in}, dead, 0) // NL100 + NL101

	met := &Metrics{}
	var streamed []Finding
	met.NotifyFindings(func(f Finding) { streamed = append(streamed, f) })
	r := newRunner(nil, &Options{Metrics: met})
	res, err := NetlintGate("fake", "opt", []*gates.Netlist{nl}, r.opt.Lib, r.met)
	if err != nil {
		t.Fatalf("warnings must not abort: %v", err)
	}
	st := res.Stats
	if st.Cells != 2 || st.Depth != 1 {
		t.Errorf("static stats = %+v, want 2 cells depth 1", st)
	}
	got := met.Findings()
	if len(got) != len(streamed) || len(got) != 3 { // NL100 + NL101 + NL200
		t.Fatalf("want 3 recorded + streamed findings, got %d/%d: %v", len(got), len(streamed), got)
	}
	codes := map[string]bool{}
	for _, f := range got {
		if f.Tier != TierNetlint || f.Unit() != "fake.opt" {
			t.Errorf("finding %s at %q", f.Tier, f.Unit())
		}
		codes[f.Code] = true
	}
	for _, c := range []string{"NL100", "NL101", "NL200"} {
		if !codes[c] {
			t.Errorf("missing finding %s in %v", c, got)
		}
	}
	// -stats surfaces them through String.
	if s := met.String(); !strings.Contains(s, "NL101") || !strings.Contains(s, "fake.opt") {
		t.Errorf("metrics text misses netlint findings:\n%s", s)
	}
}

// TestRunDesignStaticStats: end-to-end — a full design run populates
// the per-arm Static report and DebugString carries it (so the
// worker-count determinism tests pin it too).
func TestRunDesignStaticStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full design")
	}
	d := designs.All()[0]
	res, err := RunDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for arm, st := range map[string]netlint.Stats{"unopt": res.Unopt.Static, "opt": res.Opt.Static} {
		if st.Cells == 0 || st.Area == 0 || st.Depth == 0 {
			t.Errorf("%s arm static stats empty: %+v", arm, st)
		}
	}
	if !strings.Contains(res.DebugString(), "static: ") {
		t.Errorf("DebugString misses static line:\n%s", res.DebugString())
	}
}
