package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balsabm/internal/api"
	"balsabm/internal/balsa"
	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

// readDir returns the files in dir by name, or nil when dir does not
// exist.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// runArtifacts runs artifacts on in into a fresh directory and returns
// the directory and the files written.
func runArtifacts(t *testing.T, in string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	if _, stderr, code := run(t, "artifacts", in, dir); code != 0 {
		t.Fatalf("artifacts %s: exit %d: %s", in, code, stderr)
	}
	return dir, readDir(t, dir)
}

// TestArtifactsMatchShipped: artifacts writes the files of what the
// flow ships, for the four Table 3 designs, for Fig 4's decision-wait
// and sequencer as a .ch file and for r7c3.ch, in both arms:
//   - <name>.<arm>.ch is the arm's netlist: the control netlist for
//     unopt, the clustered one for opt;
//   - each <ctl>.<arm>.bms is the compiled spec the bmlint gate passes;
//   - each <ctl>.<arm>.v is the Verilog `-json synth <name>.unopt.ch`
//     ships in that arm;
//   - a <ctl>.<arm>.sol exists exactly for the controllers Minimalist
//     synthesized — the 12 opt-arm controllers of the designs, whose
//     baseline arms are all hand-library circuits, and Fig 4's
//     decision-wait and r7c3, which have no hand-library shape — and
//     mapping its controller in the arm's mode prints the arm's .v
//     byte for byte.
func TestArtifactsMatchShipped(t *testing.T) {
	type input struct {
		arg, name string
		control   *core.Netlist
	}
	var inputs []input
	for _, d := range designs.All() {
		inputs = append(inputs, input{d.Name, d.Name, d.Control()})
	}
	for _, name := range []string{"fig4", "r7c3"} {
		src, err := os.ReadFile(filepath.Join("testdata", name+".ch"))
		if err != nil {
			t.Fatal(err)
		}
		n, err := core.ParseNetlist(string(src))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"cmd/balsabm/testdata/" + name + ".ch", name, n})
	}
	lib := cell.AMS035()
	designSols := 0
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			dir, files := runArtifacts(t, in.arg)
			clustered, _, err := core.Optimize(in.control)
			if err != nil {
				t.Fatal(err)
			}
			written := 0
			for _, arm := range []struct {
				name    string
				netlist *core.Netlist
				mode    techmap.Mode
			}{{api.ModeUnopt, in.control, techmap.AreaShared}, {api.ModeOpt, clustered, techmap.SpeedSplit}} {
				ch := in.name + "." + arm.name + ".ch"
				if files[ch] != arm.netlist.Format() {
					t.Errorf("%s is not the arm's netlist:\n%s", ch, files[ch])
				}
				out, stderr, code := run(t, "-json", "-mode", arm.name, "synth", filepath.Join(dir, in.name+".unopt.ch"))
				if code != 0 {
					t.Fatalf("-mode %s synth: exit %d: %s", arm.name, code, stderr)
				}
				var shipped api.SynthResultJSON
				if err := json.Unmarshal([]byte(out), &shipped); err != nil {
					t.Fatal(err)
				}
				if len(shipped.Controllers) != len(arm.netlist.Components) {
					t.Fatalf("%s arm ships %d controllers for %d components", arm.name, len(shipped.Controllers), len(arm.netlist.Components))
				}
				written += 1 + 2*len(arm.netlist.Components)
				for i, comp := range arm.netlist.Components {
					base := comp.Name + "." + arm.name
					sp, err := chtobm.Compile(comp)
					if err != nil {
						t.Fatal(err)
					}
					if files[base+".bms"] != sp.String() {
						t.Errorf("%s.bms is not the gate's spec:\n%s", base, files[base+".bms"])
					}
					if c := shipped.Controllers[i]; c.Controller.Name != comp.Name || files[base+".v"] != c.Verilog {
						t.Errorf("%s.v differs from the Verilog synth ships for %s", base, c.Controller.Name)
					}
					sol, ok := files[base+".sol"]
					if want := arm.name == api.ModeOpt || base == "decision-wait.unopt" || base == "r7c3.unopt"; ok != want {
						t.Errorf("%s.sol written: %t, want %t", base, ok, want)
					}
					if !ok {
						continue
					}
					written++
					if in.arg == in.name {
						designSols++
					}
					ctrl, err := minimalist.Synthesize(sp)
					if err != nil {
						t.Fatal(err)
					}
					if sol != ctrl.Sol() {
						t.Errorf("%s.sol is not Minimalist's solution of the spec:\n%s", base, sol)
					}
					nl, err := techmap.MapController(ctrl, arm.mode, lib)
					if err != nil {
						t.Fatal(err)
					}
					if techmap.VerilogModules(nl, lib) != files[base+".v"] {
						t.Errorf("mapping %s.sol's controller in %s mode does not print %s.v", base, arm.mode, base)
					}
				}
			}
			if len(files) != written {
				t.Errorf("artifacts wrote %d files, want %d", len(files), written)
			}
		})
	}
	if designSols != 12 {
		t.Errorf("%d .sol files for the Table 3 designs, want the 12 opt-arm controllers", designSols)
	}
}

// TestArtifactsBalsa: a .balsa source also writes its compiled
// handshake netlist, and its baseline arm's netlist is that netlist's
// control part — what balsac and balsac -control printed before they
// folded into artifacts.
func TestArtifactsBalsa(t *testing.T) {
	const file = "internal/designs/balsa/counter8.balsa"
	_, files := runArtifacts(t, file)
	src, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	hcn, err := balsa.CompileSource(string(src), "counter8")
	if err != nil {
		t.Fatal(err)
	}
	control, err := hcn.Control()
	if err != nil {
		t.Fatal(err)
	}
	if files["counter8.breeze"] != hcn.Format() {
		t.Errorf("counter8.breeze differs from the compiled netlist:\n%s", files["counter8.breeze"])
	}
	if files["counter8.unopt.ch"] != control.Format() {
		t.Errorf("counter8.unopt.ch differs from the compiled control netlist:\n%s", files["counter8.unopt.ch"])
	}
}

// TestArtifactsSpec: a .bms spec synthesizes as one controller mapped
// in both modes. pulse.bms's output idle never toggles: its empty
// cover maps to the tied-low net, which hazver must read as 0. The
// area-shared mapping gets netlint's verdict alone, the speed-split
// one hazver's too, and the
// only file written is the spec's .sol. A spec that fails bmlint exits
// 1 and writes nothing.
func TestArtifactsSpec(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := run(t, "artifacts", "cmd/balsabm/testdata/pulse.bms", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	area, speed, ok := strings.Cut(out, "; pulse [speed-split]")
	if !ok || !strings.Contains(area, "; pulse [area-shared]: 2 cells") || !strings.Contains(area, "; netlint static:") || strings.Contains(area, "hazver") {
		t.Errorf("area-shared section wants its summary and netlint's verdict alone:\n%s", area)
	}
	if !strings.Contains(speed, "; hazver static: 1 units, 2 functions, 8 bursts, 22 ternary passes") || !strings.Contains(speed, "; netlint static:") {
		t.Errorf("speed-split section wants hazver's and netlint's verdicts:\n%s", speed)
	}
	if strings.Contains(out, "error") {
		t.Errorf("pulse.bms reports an error:\n%s", out)
	}
	src, err := os.ReadFile(filepath.Join("testdata", "pulse.bms"))
	if err != nil {
		t.Fatal(err)
	}
	res := readDir(t, dir)
	if len(res) != 1 || res["pulse.sol"] != solution(t, string(src)) {
		t.Errorf("artifacts wrote %v, want pulse.sol alone with Minimalist's solution", res)
	}

	bad := filepath.Join(t.TempDir(), "bad.bms")
	if err := os.WriteFile(bad, []byte("name bad\ninput go 0\noutput done 0\n0 1 go+ | done+\n1 0 go+ | done-\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(t.TempDir(), "out")
	out, _, code = run(t, "artifacts", bad, dir)
	if code != 1 || !strings.Contains(out, "error: BM005") || readDir(t, dir) != nil {
		t.Errorf("a spec failing bmlint: exit %d, stdout %q, files %v; want exit 1 with BM005 and no files", code, out, readDir(t, dir))
	}
}

// solution is Minimalist's .sol for .bms text.
func solution(t *testing.T, src string) string {
	t.Helper()
	sp, err := bm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.Sol()
}

// TestArtifactsNotShipped: a netlist the flow would not ship gets no
// files. In twodrv.ch two controllers drive one channel, so the lint
// gate rejects it (CH010) and artifacts fails with the error synth
// reports. Nor does a netlist whose component names are not file names.
func TestArtifactsNotShipped(t *testing.T) {
	const twodrv = "cmd/balsabm/testdata/twodrv.ch"
	_, synthErr, code := run(t, "synth", twodrv)
	if code != 1 {
		t.Fatalf("synth: exit %d, want 1", code)
	}
	dir := filepath.Join(t.TempDir(), "out")
	out, stderr, code := run(t, "artifacts", twodrv, dir)
	if code != 1 || out != "" || readDir(t, dir) != nil {
		t.Errorf("artifacts: exit %d, stdout %q, files %v; want exit 1 and no files", code, out, readDir(t, dir))
	}
	for _, errs := range []string{synthErr, stderr} {
		if !strings.Contains(errs, `error: CH010: internal channel "x" is driven from both ends`) {
			t.Errorf("want the lint gate's CH010 on x:\n%s", errs)
		}
	}
	if strings.ReplaceAll(synthErr, "lint: submitted:", "lint: twodrv:") != stderr {
		t.Errorf("artifacts' error differs from synth's:\n--- artifacts ---\n%s--- synth ---\n%s", stderr, synthErr)
	}

	// A component name is a file name: one that would escape the
	// directory fails the command before anything is written.
	escape := filepath.Join(t.TempDir(), "escape.ch")
	if err := os.WriteFile(escape, []byte("(program ../up (rep (enc-early (p-to-p passive a) (p-to-p active b))))\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code = run(t, "artifacts", escape, dir)
	if code != 1 || out != "" || !strings.Contains(stderr, `"../up.unopt.bms" is not a file name`) || readDir(t, dir) != nil {
		t.Errorf("component ../up: exit %d, stdout %q, stderr %q, files %v; want exit 1 and no files", code, out, stderr, readDir(t, dir))
	}
}
