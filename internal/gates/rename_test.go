// Rename edge cases for the incremental-resynthesis splicing path,
// exercised from outside the package (netlint imports gates, so these
// tests live in gates_test to audit renamed results).
package gates_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
)

// buildYController wires the shape the splicer actually renames: a
// mapped Burst-Mode controller with a y* state-feedback cut. The
// output NAND also drives the state variable back through the
// feedback C-element, so renaming the request wire touches nets on
// both sides of the cut.
func buildYController() *gates.Netlist {
	nl := gates.New("ctl")
	req, ack := nl.Net("go_r"), nl.Net("go_a")
	y := nl.Net("y0")
	p := nl.Net("go_a_p$4")
	nl.Inputs = append(nl.Inputs, req)
	nl.Outputs = append(nl.Outputs, ack)
	nl.AddInstance("NAND2", []int{req, y}, p, 0)
	nl.AddInstance("INV", []int{p}, ack, 0)
	nl.AddInstance("C2", []int{req, ack}, y, 0)
	return nl
}

// Self-mapping entries (w -> w) must be harmless no-ops: the copy is
// structurally identical to a rename with an empty substitution.
func TestRenameSelfMapping(t *testing.T) {
	nl := buildYController()
	self := nl.Rename("ctl", map[string]string{"go_r": "go_r", "y0": "y0"})
	plain := nl.Rename("ctl", nil)
	a, err := gates.EncodeJSON(self)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gates.EncodeJSON(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("self-mapping rename differs from identity copy:\n%s\n%s", a, b)
	}
}

// A chained substitution {a->b, b->c} applies simultaneously: a's net
// must end up named b (not c), mirroring the swap case the splicer
// relies on when two wires exchange roles between designs.
func TestRenameChainedSubstitution(t *testing.T) {
	nl := gates.New("chain")
	a, b := nl.Net("a"), nl.Net("b")
	out := nl.Net("out")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.Outputs = append(nl.Outputs, out)
	nl.AddInstance("AND2", []int{a, b}, out, 0)
	r := nl.Rename("chain", map[string]string{"a": "b", "b": "c"})
	if r.NetNames[a] != "b" || r.NetNames[b] != "c" {
		t.Fatalf("chained rename: %v", r.NetNames)
	}
	if !r.HasNet("b") || !r.HasNet("c") || r.HasNet("a") {
		t.Fatalf("name index inconsistent after chain: %v", r.NetNames)
	}
}

// Renaming the nets feeding the y* state-feedback cut must keep the
// y-nets themselves (CriticalDelay and netlint cut feedback loops by
// structure, not name) and leave the audit verdict unchanged: the
// spliced controller is netlint-clean iff the original was.
func TestRenameYFeedbackCutNetlintClean(t *testing.T) {
	lib := cell.AMS035()
	nl := buildYController()
	before := netlint.Audit(nl, lib)

	r := nl.Rename("spliced", map[string]string{
		"go_r": "req_r", "go_a": "req_a", "go_a_p$4": "req_a_p$4",
	})
	if !r.HasNet("y0") {
		t.Fatal("state net y0 lost in rename")
	}
	if !r.HasNet("req_r") || r.HasNet("go_r") {
		t.Fatalf("cut-feeding net not renamed: %v", r.NetNames)
	}
	after := netlint.Audit(r, lib)
	if e1, w1, _ := netlint.Count(before.Diags); netlint.HasErrors(before.Diags) {
		t.Fatalf("reference controller not clean: %d errors %d warnings", e1, w1)
	}
	if netlint.HasErrors(after.Diags) {
		t.Fatalf("renamed controller gained errors:\n%s", netlint.Format(after.Diags, "spliced"))
	}
	if len(before.Diags) != len(after.Diags) {
		t.Fatalf("rename changed diagnostic count: %d -> %d", len(before.Diags), len(after.Diags))
	}
	// The feedback loop is still cut: critical delay stays finite and
	// equal, since only labels changed.
	if d1, d2 := nl.CriticalDelay(lib), r.CriticalDelay(lib); d1 != d2 {
		t.Fatalf("critical delay changed by rename: %v -> %v", d1, d2)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	nl := buildYController()
	nl.ConstZero() // exercise a non-(-1) const0
	blob, err := gates.EncodeJSON(nl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := gates.DecodeJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.NetNames, nl.NetNames) ||
		!reflect.DeepEqual(back.Instances, nl.Instances) ||
		!reflect.DeepEqual(back.Inputs, nl.Inputs) ||
		!reflect.DeepEqual(back.Outputs, nl.Outputs) ||
		back.Name != nl.Name || back.Const0 != nl.Const0 {
		t.Fatalf("round trip altered netlist: %+v vs %+v", back, nl)
	}
	// The rebuilt name index works (and is independent of the source).
	if back.Net("y0") != nl.Net("y0") {
		t.Fatal("name index diverged after decode")
	}
	again, err := gates.EncodeJSON(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("encoding unstable across a round trip")
	}
}

func TestDecodeRejectsCorruptShapes(t *testing.T) {
	for name, blob := range map[string]string{
		"not json":       `{"name":`,
		"duplicate nets": `{"name":"x","netNames":["a","a"],"inputs":[],"outputs":[],"instances":[],"const0":-1}`,
		"dangling input": `{"name":"x","netNames":["a"],"inputs":[7],"outputs":[],"instances":[],"const0":-1}`,
		"dangling inst":  `{"name":"x","netNames":["a"],"inputs":[],"outputs":[],"instances":[{"Cell":"INV","Inputs":[0],"Output":3,"Module":0}],"const0":-1}`,
		"bad const0":     `{"name":"x","netNames":["a"],"inputs":[],"outputs":[],"instances":[],"const0":-2}`,
	} {
		if _, err := gates.DecodeJSON([]byte(blob)); err == nil {
			t.Errorf("%s: decode accepted corrupt blob", name)
		}
	}
	// -1 (absent const0, undriven marker) stays legal.
	if _, err := gates.DecodeJSON([]byte(`{"name":"x","netNames":["a"],"inputs":[-1],"outputs":[],"instances":[],"const0":-1}`)); err != nil {
		t.Errorf("-1 net reference rejected: %v", err)
	}
}

// A dangling instance pin names the instance, the pin kind, the net and
// the net count, as before the message was formatted lazily.
func TestDecodeJSONErrorText(t *testing.T) {
	const insts = `[{"Cell":"INV","Inputs":[0],"Output":1,"Module":1},` +
		`{"Cell":"NAND2","Inputs":[0,%s],"Output":%s,"Module":2}]`
	for _, tc := range []struct{ in, out, want string }{
		{"7", "2", "gates: decode netlist x: instance 1 input references net 7 of 3"},
		{"1", "-2", "gates: decode netlist x: instance 1 output references net -2 of 3"},
	} {
		blob := fmt.Sprintf(`{"name":"x","netNames":["a","b","c"],"inputs":[0],"outputs":[2],"instances":`+insts+`,"const0":-1}`, tc.in, tc.out)
		_, err := gates.DecodeJSON([]byte(blob))
		if err == nil || err.Error() != tc.want {
			t.Errorf("pins %s/%s: error %v, want %q", tc.in, tc.out, err, tc.want)
		}
	}
}

// Checking a valid netlist's pins formats no message: decoding
// allocates fewer than four times per instance, the three being its
// cell name, its input list and its output net's name, plus the
// slices' growth. Formatting both pin messages made it five.
func TestDecodeJSONAllocs(t *testing.T) {
	decodeAllocs := func(insts int) float64 {
		nl := gates.New("x")
		a := nl.Net("a")
		for i := 0; i < insts; i++ {
			nl.AddInstance("INV", []int{a}, nl.Fresh("t"), 1)
		}
		blob, err := gates.EncodeJSON(nl)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := gates.DecodeJSON(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := decodeAllocs(10), decodeAllocs(210)
	if per := (large - small) / 200; per >= 4 {
		t.Errorf("decoding allocates %.2f times per instance, want fewer than 4", per)
	}
}
