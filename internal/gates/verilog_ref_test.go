package gates

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"balsabm/internal/cell"
)

// verilogRef is the fmt-based writer Verilog replaced, kept as the
// reference the differential tests hold it to.
func verilogRef(n *Netlist, lib *cell.Library) string {
	var sb strings.Builder
	safe := func(net int) string { return VerilogIdent(n.NetNames[net]) }
	var ports []string
	for _, in := range n.Inputs {
		ports = append(ports, safe(in))
	}
	for _, out := range n.Outputs {
		ports = append(ports, safe(out))
	}
	fmt.Fprintf(&sb, "module %s (%s);\n", strings.ReplaceAll(n.Name, "-", "_"), strings.Join(ports, ", "))
	for _, in := range n.Inputs {
		fmt.Fprintf(&sb, "  input %s;\n", safe(in))
	}
	for _, out := range n.Outputs {
		fmt.Fprintf(&sb, "  output %s;\n", safe(out))
	}
	declared := map[int]bool{}
	for _, in := range n.Inputs {
		declared[in] = true
	}
	for _, out := range n.Outputs {
		declared[out] = true
	}
	var wires []string
	for id := range n.NetNames {
		if !declared[id] {
			wires = append(wires, safe(id))
		}
	}
	sort.Strings(wires)
	for _, w := range wires {
		fmt.Fprintf(&sb, "  wire %s;\n", w)
	}
	if n.Const0 >= 0 {
		fmt.Fprintf(&sb, "  assign %s = 1'b0;\n", safe(n.Const0))
	}
	for i, inst := range n.Instances {
		args := []string{safe(inst.Output)}
		for _, in := range inst.Inputs {
			args = append(args, safe(in))
		}
		fmt.Fprintf(&sb, "  %s g%d (%s); // module %d\n", inst.Cell, i, strings.Join(args, ", "), inst.Module)
	}
	sb.WriteString("endmodule\n")
	return sb.String()
}

// VerilogRef exports the reference writer to the package's external
// tests, which run it over the netlists the flow ships.
var VerilogRef = verilogRef

// randomVerilogNetlist builds a netlist whose names carry every
// character VerilogIdent rewrites, so distinct nets can share an
// identifier; nets may be both input and output, instances may have no
// inputs, and module tags range over negative and multi-digit values.
func randomVerilogNetlist(rng *rand.Rand) *Netlist {
	const alphabet = "ab$+-._x9"
	name := func() string {
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	n := New(name())
	nets := 1 + rng.Intn(40)
	for len(n.NetNames) < nets {
		n.Net(name())
	}
	for i := rng.Intn(5); i > 0; i-- {
		n.Inputs = append(n.Inputs, rng.Intn(nets))
	}
	for i := rng.Intn(5); i > 0; i-- {
		n.Outputs = append(n.Outputs, rng.Intn(nets))
	}
	if rng.Intn(2) == 0 {
		n.Const0 = rng.Intn(nets)
	}
	for i := rng.Intn(30); i > 0; i-- {
		ins := make([]int, rng.Intn(4))
		for k := range ins {
			ins[k] = rng.Intn(nets)
		}
		n.AddInstance([]string{"NAND2", "INV", "C2", "AO222"}[rng.Intn(4)], ins, rng.Intn(nets), rng.Intn(2000)-1000)
	}
	return n
}

// The writer matches the reference byte for byte on seeded random
// netlists.
func TestVerilogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for trial := 0; trial < 2000; trial++ {
		n := randomVerilogNetlist(rng)
		if got, want := n.Verilog(nil), verilogRef(n, nil); got != want {
			t.Fatalf("trial %d: Verilog differs from the reference:\n%s\nvs\n%s", trial, got, want)
		}
	}
}

// A netlist is written in five allocations whatever its size and
// however many names need rewriting: the identifiers' block, the
// identifier, declared-flag and wire slices, and the text itself.
func TestVerilogAllocs(t *testing.T) {
	for _, size := range []int{4, 400} {
		n := New("ctl-x")
		prev := n.Net("in")
		n.Inputs = append(n.Inputs, prev)
		for i := 0; i < size; i++ {
			out := n.Fresh("t")
			n.AddInstance("INV", []int{prev}, out, 1)
			prev = out
		}
		n.Outputs = append(n.Outputs, prev)
		if allocs := testing.AllocsPerRun(20, func() { n.Verilog(nil) }); allocs > 5 {
			t.Errorf("%d instances: Verilog made %.0f allocations, want at most 5", size, allocs)
		}
	}
}

// VerilogIdent rewrites exactly '$', '+', '-' and '.', and returns a
// name needing no rewrite unchanged.
func TestVerilogIdent(t *testing.T) {
	for name, want := range map[string]string{
		"":          "",
		"a_r":       "a_r",
		"t$12":      "t_12",
		"x+.y-$":    "xp_ym_",
		"\xff$\x00": "\xff_\x00",
	} {
		if got := VerilogIdent(name); got != want {
			t.Errorf("VerilogIdent(%q) = %q, want %q", name, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { VerilogIdent("a_r") }); allocs != 0 {
		t.Errorf("VerilogIdent allocated %.0f times on a plain name", allocs)
	}
}
