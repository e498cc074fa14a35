package gates_test

import (
	"context"
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/gates"
	"balsabm/internal/techmap"
)

// verilogModulesRef is the string-concatenating techmap.VerilogModules
// the current one replaced, over the reference module writer.
func verilogModulesRef(nl *gates.Netlist, lib *cell.Library) string {
	var sb strings.Builder
	sb.WriteString("// level 1 cells: ")
	for _, inst := range nl.Instances {
		if inst.Module == 1 {
			sb.WriteString(inst.Cell + " ")
		}
	}
	sb.WriteString("\n// level 2 cells: ")
	for _, inst := range nl.Instances {
		if inst.Module == 2 {
			sb.WriteString(inst.Cell + " ")
		}
	}
	sb.WriteString("\n")
	sb.WriteString(gates.VerilogRef(nl, lib))
	return sb.String()
}

// Every netlist both arms of the four Table 3 designs ship, and each
// arm's merged circuit, is written byte for byte as the reference
// writers write it, module text and three-module file alike.
func TestVerilogMatchesReferenceShipped(t *testing.T) {
	lib := cell.AMS035()
	for _, d := range designs.All() {
		for _, arm := range []string{"unopt", "opt"} {
			c, err := flow.SynthesizeCheckedCtx(context.Background(), d.Name, arm, d.Control(), &flow.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name, arm, err)
			}
			for _, nl := range append(append([]*gates.Netlist(nil), c.Mapped...), c.Merged) {
				if got, want := nl.Verilog(lib), gates.VerilogRef(nl, lib); got != want {
					t.Fatalf("%s/%s: %s: Verilog differs from the reference:\n%s\nvs\n%s", d.Name, arm, nl.Name, got, want)
				}
				if got, want := techmap.VerilogModules(nl, lib), verilogModulesRef(nl, lib); got != want {
					t.Fatalf("%s/%s: %s: VerilogModules differs from the reference", d.Name, arm, nl.Name)
				}
			}
		}
	}
}

// The three-module file appends the module to its level comments: one
// buffer for the comments, one regrown to the module's size, and the
// writer's identifier block and three slices.
func TestVerilogModulesAllocs(t *testing.T) {
	n := gates.New("ctl")
	a, b, out := n.Net("a"), n.Net("b"), n.Net("out")
	n.Inputs = append(n.Inputs, a, b)
	n.Outputs = append(n.Outputs, out)
	for i := 0; i < 100; i++ {
		mid := n.Net("m" + strings.Repeat("x", i))
		n.AddInstance("NAND2", []int{a, b}, mid, 1+i%2)
	}
	if allocs := testing.AllocsPerRun(20, func() { techmap.VerilogModules(n, nil) }); allocs > 6 {
		t.Errorf("VerilogModules made %.0f allocations, want at most 6", allocs)
	}
}
