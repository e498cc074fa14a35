package flow

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

// TestHazverGolden statically verifies every Table 3 design, both
// arms, and diffs the full report (static stats plus rendered
// diagnostics, including the HZ200 per-function X-depth table) against
// examples/hazver/<design>.hazver. Run with -update to regenerate
// after an intentional output change. The goldens double as the
// acceptance pin: all four designs must verify hazard-free — any
// HZ-error fails the test outright.
func TestHazverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every Table 3 design")
	}
	dir := "../../examples/hazver"
	for _, d := range designs.All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var sb strings.Builder
			for _, arm := range []string{"unopt", "opt"} {
				n := d.Control()
				mode := techmap.AreaShared
				if arm == "opt" {
					var err error
					n, _, err = core.OptimizeOpt(n, core.Options{})
					if err != nil {
						t.Fatalf("%s: clustering: %v", d.Name, err)
					}
					mode = techmap.SpeedSplit
				}
				res, err := HazverNetlist(context.Background(), d.Name, arm, n, mode, nil)
				if err != nil {
					t.Fatalf("%s.%s: %v", d.Name, arm, err)
				}
				fmt.Fprintf(&sb, "== %s ==\n", res.Name)
				fmt.Fprintf(&sb, "static: %s\n", res.Stats)
				sb.WriteString(hazver.Format(res.Diags, res.Name))
				if hazver.HasErrors(res.Diags) {
					t.Errorf("%s has HZ errors:\n%s", res.Name, hazver.Format(res.Diags, res.Name))
				}
			}
			got := sb.String()
			golden := filepath.Join(dir, d.Name+".hazver")
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
				t.Errorf("hazver report changed for %s:\n--- got ---\n%s--- want ---\n%s",
					d.Name, got, want)
			}
		})
	}
}

// synthUnit pairs a synthesized controller with its mapped netlist and
// the hazver verification unit built from both.
type synthUnit struct {
	ctrl *minimalist.Controller
	nl   *gates.Netlist
	unit hazver.Unit
}

// synthHazverUnits synthesizes and maps each distinct canonical shape
// of a netlist directly, keeping the intermediate controllers next to
// the hazver units, so tests can tamper with netlists and cross-check
// techmap.CheckMapped on the same synthesis products.
func synthHazverUnits(t testing.TB, n *core.Netlist, mode techmap.Mode) []synthUnit {
	t.Helper()
	lib := cell.AMS035()
	seen := map[string]bool{}
	var out []synthUnit
	for _, comp := range n.Components {
		key := "raw|" + comp.Name
		if canon, ok := ch.CanonicalizeProgram(comp); ok {
			key = canon.Key
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		sp, err := chtobm.Compile(comp)
		if err != nil {
			t.Fatalf("%s: compile: %v", comp.Name, err)
		}
		ctrl, err := minimalist.Synthesize(sp)
		if err != nil {
			t.Fatalf("%s: synthesize: %v", comp.Name, err)
		}
		nl, err := techmap.MapController(ctrl, mode, lib)
		if err != nil {
			t.Fatalf("%s: map: %v", comp.Name, err)
		}
		out = append(out, synthUnit{ctrl: ctrl, nl: nl, unit: hazver.Unit{
			Name:        comp.Name,
			Vars:        ctrl.Vars,
			Outputs:     ctrl.Spec.Outputs,
			StateBits:   ctrl.StateBits,
			Transitions: ctrl.Transitions,
			Netlist:     nl,
		}})
	}
	return out
}

// stableBurst finds a specified burst of a unit that holds some output
// stable at 1 while at least one input changes — the shape the mux
// tamper of injectMuxHazard glitches — returning the output, the
// burst ordinal and the changing input.
func stableBurst(u hazver.Unit) (fn string, tr int, s string, ok bool) {
	for _, out := range u.Outputs {
		for i, t := range u.Transitions[out] {
			ch := t.Changed()
			if t.From && t.To && len(ch) > 0 && u.Netlist.HasNet(out) && u.Netlist.HasNet(u.Vars[ch[0]]) {
				return out, i, u.Vars[ch[0]], true
			}
		}
	}
	return "", -1, "", false
}

// injectMuxHazard retargets output fn's driver to a fresh net, then
// rebuilds fn through the classic glitching mux decomposition
// fn = NAND(NAND(s, old), NAND(!s, old)) over the burst input s. The
// netlist stays functionally identical at every binary point.
func injectMuxHazard(t testing.TB, nl *gates.Netlist, fn, sVar string) {
	t.Helper()
	z, s := nl.Net(fn), nl.Net(sVar)
	di := -1
	for i := range nl.Instances {
		if nl.Instances[i].Output == z {
			di = i
		}
	}
	if di < 0 {
		t.Fatalf("output %q has no driver", fn)
	}
	old := nl.Net("hz_old")
	nl.Instances[di].Output = old
	sInv, aN, bN := nl.Net("hz_sn"), nl.Net("hz_a"), nl.Net("hz_b")
	nl.AddInstance("INV", []int{s}, sInv, 0)
	nl.AddInstance("NAND2", []int{s, old}, aN, 0)
	nl.AddInstance("NAND2", []int{sInv, old}, bN, 0)
	nl.AddInstance("NAND2", []int{aN, bN}, z, 0)
}

// TestHazverInjectedHazard is the acceptance-criterion differential:
// replace one output's hazard-free driver with the classic glitching
// mux decomposition z = NAND(NAND(s, old), NAND(!s, old)) over a burst
// input s that changes while the specification holds z stable at 1.
// The tampered netlist is functionally identical at every binary
// point, so techmap.CheckMapped's exhaustive sampling still passes —
// but any arrival order where the s path and the !s path overlap in X
// glitches z, and hazver must catch it statically with HZ001 naming
// the function, the burst, and the offending net.
func TestHazverInjectedHazard(t *testing.T) {
	d, err := designs.ByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	units := synthHazverUnits(t, d.Control(), techmap.SpeedSplit)

	// Find a burst the mux tamper glitches.
	var (
		tu     synthUnit
		fnName string
		ti     = -1
		sVar   string
	)
	for _, u := range units {
		if fn, i, sv, ok := stableBurst(u.unit); ok {
			tu, fnName, ti, sVar = u, fn, i, sv
			break
		}
	}
	if ti < 0 {
		t.Fatal("no stable-at-1 burst with a changing input found to tamper")
	}
	nl := tu.nl
	injectMuxHazard(t, nl, fnName, sVar)

	// The sampling audit is blind to the tamper: every binary point
	// still computes the specified value.
	if err := techmap.CheckMapped(tu.ctrl, nl, cell.AMS035()); err != nil {
		t.Fatalf("tampered netlist must stay functionally identical, CheckMapped: %v", err)
	}

	// hazver catches it statically, pinned to function, burst, net.
	res := hazver.Audit("tamper.opt", []hazver.Unit{tu.unit}, cell.AMS035(), hazver.Options{})
	if !hazver.HasErrors(res.Diags) {
		t.Fatalf("tampered netlist passed hazver:\n%s", hazver.Format(res.Diags, res.Name))
	}
	found := false
	for _, dg := range res.Diags {
		if dg.Code != "HZ001" || dg.Loc.Fn != fnName || dg.Loc.Tr != ti {
			continue
		}
		found = true
		if !strings.Contains(dg.Loc.Burst, sVar) {
			t.Errorf("burst %q does not name the changing input %q", dg.Loc.Burst, sVar)
		}
		if !strings.Contains(dg.Message, "hz_") {
			t.Errorf("message does not name an offending tamper net: %s", dg.Message)
		}
	}
	if !found {
		t.Errorf("no HZ001 at fn %q burst %d:\n%s", fnName, ti, hazver.Format(res.Diags, res.Name))
	}

	// The flow gate wraps exactly these findings as its abort error.
	var errDiags []hazver.Diag
	for _, dg := range res.Diags {
		if dg.Severity == hazver.SevError {
			errDiags = append(errDiags, dg)
		}
	}
	he := &HazverError{Design: "tamper", Arm: "opt", Diags: errDiags}
	if he.Circuit() != "tamper.opt" || !strings.Contains(he.Error(), "HZ001") {
		t.Errorf("HazverError misses the finding: %s", he.Error())
	}
}

// TestHazverCatchesTamperedCachedBlob: hazver verifies the netlists the
// flow ships, not a second synthesis of them. A cached controller blob
// that decodes cleanly but whose netlist carries the glitching mux of
// TestHazverInjectedHazard is spliced in without synthesis (so without
// the sampling audit either), and the hazver gate must fail the arm,
// naming the function, the burst and the offending net on the wires of
// the component that ships it.
func TestHazverCatchesTamperedCachedBlob(t *testing.T) {
	ctx := context.Background()
	d, err := designs.ByName("systolic-counter")
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewMemoryControllerCache()
	if _, err := SynthesizeCheckedCtx(ctx, d.Name, "opt", n, techmap.SpeedSplit, &Options{Controllers: ctl}); err != nil {
		t.Fatalf("seeding run: %v", err)
	}

	comp := n.Components[0]
	canon, ok := ch.CanonicalizeProgram(comp)
	if !ok {
		t.Fatalf("%s failed to canonicalize", comp.Name)
	}
	key := ControllerKey(techmap.SpeedSplit, true, canon.Digest())
	blob, ok := ctl.GetController(key)
	if !ok {
		t.Fatal("seeding run cached no blob for the first component")
	}
	e, err := decodeController(blob)
	if err != nil {
		t.Fatal(err)
	}
	fnName, ti, sVar, ok := stableBurst(e.unit)
	if !ok {
		t.Fatal("no stable-at-1 burst with a changing input found to tamper")
	}
	injectMuxHazard(t, e.netlist, fnName, sVar)
	if blob, err = encodeController(e); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeController(blob); err != nil {
		t.Fatalf("tampered blob must decode cleanly: %v", err)
	}
	ctl.PutController(key, blob)

	met := &Metrics{}
	_, err = SynthesizeCheckedCtx(ctx, d.Name, "opt", n, techmap.SpeedSplit, &Options{Controllers: ctl, Metrics: met})
	if met.ControllersReused.Load() == 0 || met.ControllersCorrupt.Load() != 0 {
		t.Fatalf("tampered blob not spliced in: %d reused, %d corrupt", met.ControllersReused.Load(), met.ControllersCorrupt.Load())
	}
	var he *HazverError
	if !errors.As(err, &he) {
		t.Fatalf("want *HazverError from the tampered blob, got %T: %v", err, err)
	}
	rn := map[string]string{}
	for i, w := range e.wires {
		rn[w] = canon.Wires[i]
	}
	found := false
	for _, dg := range he.Diags {
		if dg.Code == "HZ001" && dg.Loc.Fn == rn[fnName] && dg.Loc.Tr == ti &&
			strings.Contains(dg.Loc.Burst, rn[sVar]) && strings.Contains(dg.Message, "hz_") {
			found = true
		}
	}
	if !found {
		t.Errorf("no HZ001 at fn %q burst %d naming %q and a tamper net:\n%s", rn[fnName], ti, rn[sVar], he.Error())
	}
}

// BenchmarkHazver audits every Table 3 design's optimized-arm units
// per iteration — the static verification cost EXPERIMENTS.md compares
// against CheckMapped's sampling sweep over the same circuits.
func BenchmarkHazver(b *testing.B) {
	lib := cell.AMS035()
	type bench struct {
		name  string
		units []hazver.Unit
	}
	var set []bench
	for _, d := range designs.All() {
		n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		su := synthHazverUnits(b, n, techmap.SpeedSplit)
		units := make([]hazver.Unit, len(su))
		for i := range su {
			units[i] = su[i].unit
		}
		set = append(set, bench{d.Name + ".opt", units})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range set {
			res := hazver.Audit(bs.name, bs.units, lib, hazver.Options{})
			if hazver.HasErrors(res.Diags) {
				b.Fatalf("%s: HZ errors", bs.name)
			}
		}
	}
}

// BenchmarkCheckMappedSampling sweeps the same optimized-arm controllers
// through techmap.CheckMapped's exhaustive binary sampling — the
// pre-hazver functional audit hazver's endpoint passes subsume.
func BenchmarkCheckMappedSampling(b *testing.B) {
	lib := cell.AMS035()
	var set []synthUnit
	for _, d := range designs.All() {
		n, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		set = append(set, synthHazverUnits(b, n, techmap.SpeedSplit)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, su := range set {
			if err := techmap.CheckMapped(su.ctrl, su.nl, lib); err != nil {
				b.Fatal(err)
			}
		}
	}
}
