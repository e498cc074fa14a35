package flow

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

var updateNetlint = flag.Bool("update", false, "rewrite examples/netlint golden .netlint files")

// armNetlists synthesizes one arm of a design and returns the mapped
// controllers: the unopt arm maps the original control netlist
// area-shared; the opt arm clusters (with the given state limit) and
// maps speed-split.
func armNetlists(t *testing.T, d *designs.Design, arm string, maxStates int) []*gates.Netlist {
	t.Helper()
	n := d.Control()
	mode := techmap.AreaShared
	if arm == "opt" {
		var err error
		n, _, err = core.OptimizeOpt(n, core.Options{MaxStates: maxStates})
		if err != nil {
			t.Fatalf("%s: clustering: %v", d.Name, err)
		}
		mode = techmap.SpeedSplit
	}
	mapped, _, err := SynthesizeNetlist(n, mode, nil)
	if err != nil {
		t.Fatalf("%s.%s: synthesis: %v", d.Name, arm, err)
	}
	return mapped
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
				mapped := armNetlists(t, d, arm, 0)
				res := NetlintMerged(d.Name, arm, mapped, cell.AMS035())
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
			mapped := armNetlists(t, d, "opt", maxStates)
			res := NetlintMerged(d.Name, fmt.Sprintf("opt%d", maxStates), mapped, cell.AMS035())
			if netlint.HasErrors(res.Diags) {
				t.Errorf("%s maxStates=%d has NL errors:\n%s",
					d.Name, maxStates, netlint.Format(res.Diags, res.Name))
			}
		}
	}
}

// TestNetlintGateAborts: an injected defect — a second driver on one
// controller output — must abort the gate as a *NetlintError carrying
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
	var ne *NetlintError
	if !errors.As(err, &ne) {
		t.Fatalf("want *NetlintError, got %T: %v", err, err)
	}
	if ne.Circuit() != "fake.unopt" {
		t.Errorf("Circuit() = %q", ne.Circuit())
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
// through NotifyNetlint, and the gate passes.
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
	var streamed []NetlintFinding
	met.NotifyNetlint(func(f NetlintFinding) { streamed = append(streamed, f) })
	r := newRunner(nil, &Options{Metrics: met})
	res, err := NetlintGate("fake", "opt", []*gates.Netlist{nl}, r.opt.Lib, r.met)
	if err != nil {
		t.Fatalf("warnings must not abort: %v", err)
	}
	st := res.Stats
	if st.Cells != 2 || st.Depth != 1 {
		t.Errorf("static stats = %+v, want 2 cells depth 1", st)
	}
	got := met.NetlintFindings()
	if len(got) != len(streamed) || len(got) != 3 { // NL100 + NL101 + NL200
		t.Fatalf("want 3 recorded + streamed findings, got %d/%d: %v", len(got), len(streamed), got)
	}
	codes := map[string]bool{}
	for _, f := range got {
		if f.Circuit() != "fake.opt" {
			t.Errorf("finding circuit = %q", f.Circuit())
		}
		codes[f.Diag.Code] = true
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
