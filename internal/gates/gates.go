// Package gates models mapped gate-level netlists: instances of library
// cells connected by named nets, with area/critical-path reporting, a
// functional evaluator (used by equivalence and hazard audits and by
// the event simulator) and a structural Verilog writer (the paper's
// tech-mapped controllers are exchanged as structural Verilog).
package gates

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"balsabm/internal/cell"
)

// Instance is one placed cell.
type Instance struct {
	Cell   string
	Inputs []int
	Output int
	Module int // 1/2 = the paper's two NAND levels, 0 = boundary logic
}

// Netlist is a mapped circuit.
type Netlist struct {
	Name      string
	NetNames  []string
	netIndex  map[string]int
	Inputs    []int // primary inputs
	Outputs   []int // primary outputs
	Instances []Instance
	Const0    int // net tied low (-1 if absent)

	// drv is the lazily-built net→driving-instance index (see
	// DriverIndex); drvOK marks it valid. Guarded by drvMu so
	// concurrent audits of a shared netlist stay race-free.
	drvMu sync.Mutex
	drv   []int
	drvOK bool
}

// New creates an empty netlist.
func New(name string) *Netlist {
	return &Netlist{Name: name, netIndex: map[string]int{}, Const0: -1}
}

// Net interns a net by name.
func (n *Netlist) Net(name string) int {
	if id, ok := n.netIndex[name]; ok {
		return id
	}
	id := len(n.NetNames)
	n.NetNames = append(n.NetNames, name)
	n.netIndex[name] = id
	return id
}

// HasNet reports whether a net with this name exists.
func (n *Netlist) HasNet(name string) bool {
	_, ok := n.netIndex[name]
	return ok
}

// Lookup returns the id of the named net, if the netlist has one. It
// only reads, so readers may share a netlist nothing writes to any
// more: the simulator resolves names in the merged circuit it runs on.
func (n *Netlist) Lookup(name string) (int, bool) {
	id, ok := n.netIndex[name]
	return id, ok
}

// Fresh creates a new unique net with the given prefix.
func (n *Netlist) Fresh(prefix string) int {
	return n.Net(fmt.Sprintf("%s$%d", prefix, len(n.NetNames)))
}

// AddInstance places a cell.
func (n *Netlist) AddInstance(cellName string, inputs []int, output int, module int) {
	n.Instances = append(n.Instances, Instance{
		Cell: cellName, Inputs: append([]int(nil), inputs...), Output: output, Module: module,
	})
	n.drvMu.Lock()
	n.drv, n.drvOK = nil, false
	n.drvMu.Unlock()
}

// ConstZero returns the tied-low net, creating it on first use.
func (n *Netlist) ConstZero() int {
	if n.Const0 < 0 {
		n.Const0 = n.Net("const0$")
	}
	return n.Const0
}

// DriverIndex returns the net→driving-instance index (-1 for undriven
// nets), built lazily and invalidated by AddInstance; Rename and Merge
// return fresh netlists that build their own. For a net with several
// drivers (an NL001 error netlint reports) the lowest instance index
// wins, matching what Driver's original linear scan returned.
// Instances whose output id is out of range are skipped (netlint
// audits such malformed netlists; NL000 flags them). The returned
// slice is shared — callers must not modify it.
func (n *Netlist) DriverIndex() []int {
	n.drvMu.Lock()
	defer n.drvMu.Unlock()
	if !n.drvOK || len(n.drv) != len(n.NetNames) {
		drv := make([]int, len(n.NetNames))
		for i := range drv {
			drv[i] = -1
		}
		for i := range n.Instances {
			out := n.Instances[i].Output
			if out >= 0 && out < len(drv) && drv[out] < 0 {
				drv[out] = i
			}
		}
		n.drv, n.drvOK = drv, true
	}
	return n.drv
}

// Driver returns the instance index driving the net, or -1.
func (n *Netlist) Driver(net int) int {
	drv := n.DriverIndex()
	if net < 0 || net >= len(drv) {
		return -1
	}
	return drv[net]
}

// Rename returns a deep copy of the netlist under a new name with net
// names rewritten through sub (exact match; names not in sub are kept).
// The substitution is applied simultaneously, so swaps are safe. It
// backs the flow's canonical-form synthesis cache: a cached controller
// is reused for a rename-isomorphic component by mapping its channel
// wires onto the new component's.
func (n *Netlist) Rename(name string, sub map[string]string) *Netlist {
	out := &Netlist{
		Name:     name,
		NetNames: make([]string, len(n.NetNames)),
		netIndex: make(map[string]int, len(n.NetNames)),
		Inputs:   append([]int(nil), n.Inputs...),
		Outputs:  append([]int(nil), n.Outputs...),
		Const0:   n.Const0,
	}
	for id, netName := range n.NetNames {
		if mapped, ok := sub[netName]; ok {
			netName = mapped
		}
		out.NetNames[id] = netName
		out.netIndex[netName] = id
	}
	out.Instances = make([]Instance, len(n.Instances))
	for i, inst := range n.Instances {
		out.Instances[i] = Instance{
			Cell:   inst.Cell,
			Inputs: append([]int(nil), inst.Inputs...),
			Output: inst.Output,
			Module: inst.Module,
		}
	}
	return out
}

// Area sums the cell areas.
func (n *Netlist) Area(lib *cell.Library) float64 {
	total := 0.0
	for _, inst := range n.Instances {
		total += lib.Get(inst.Cell).Area
	}
	return total
}

// CriticalDelay returns the longest register-free path delay through
// the netlist (cycles, e.g. state feedback, are cut at re-entry).
func (n *Netlist) CriticalDelay(lib *cell.Library) float64 {
	drivers := n.DriverIndex()
	memo := make([]float64, len(n.NetNames))
	state := make([]int, len(n.NetNames)) // 0 new, 1 visiting, 2 done
	var arrive func(net int) float64
	arrive = func(net int) float64 {
		if state[net] == 2 {
			return memo[net]
		}
		if state[net] == 1 {
			return 0 // feedback cut
		}
		state[net] = 1
		best := 0.0
		if d := drivers[net]; d >= 0 {
			inst := n.Instances[d]
			c := lib.Get(inst.Cell)
			for _, in := range inst.Inputs {
				if t := arrive(in) + c.Delay; t > best {
					best = t
				}
			}
		}
		state[net] = 2
		memo[net] = best
		return best
	}
	worst := 0.0
	for net := range n.NetNames {
		if t := arrive(net); t > worst {
			worst = t
		}
	}
	return worst
}

// Settle evaluates the netlist to a combinational fixpoint from the
// given primary-input values and previous net values (nil for
// power-up, which assumes all-zero history for stateful cells). It
// returns the settled net values, or an error if the circuit
// oscillates.
func (n *Netlist) Settle(lib *cell.Library, inputs map[string]bool, prev []bool) ([]bool, error) {
	vals := make([]bool, len(n.NetNames))
	if prev != nil {
		copy(vals, prev)
	}
	for name, v := range inputs {
		id, ok := n.netIndex[name]
		if !ok {
			return nil, fmt.Errorf("gates: %s: no net %q", n.Name, name)
		}
		vals[id] = v
	}
	for iter := 0; iter < 4*len(n.Instances)+16; iter++ {
		changed := false
		for _, inst := range n.Instances {
			c := lib.Get(inst.Cell)
			ins := make([]bool, len(inst.Inputs))
			for i, in := range inst.Inputs {
				ins[i] = vals[in]
			}
			out := c.Eval(ins, vals[inst.Output])
			if out != vals[inst.Output] {
				vals[inst.Output] = out
				changed = true
			}
		}
		if !changed {
			return vals, nil
		}
	}
	return nil, fmt.Errorf("gates: %s: did not settle", n.Name)
}

// Value reads a named net from a settled value vector.
func (n *Netlist) Value(vals []bool, name string) (bool, error) {
	id, ok := n.netIndex[name]
	if !ok {
		return false, fmt.Errorf("gates: %s: no net %q", n.Name, name)
	}
	return vals[id], nil
}

// CellCounts returns instance counts by cell name.
func (n *Netlist) CellCounts() map[string]int {
	out := map[string]int{}
	for _, inst := range n.Instances {
		out[inst.Cell]++
	}
	return out
}

// verilogIdent maps the net-name characters Verilog identifiers may
// not hold; a Replacer is safe for concurrent use.
var verilogIdent = strings.NewReplacer("$", "_", "+", "p", "-", "m", ".", "_")

// VerilogIdent returns the identifier Netlist.Verilog prints for a net
// name. Distinct names can map to one identifier; netlint reports that
// as NL007.
func VerilogIdent(name string) string { return verilogIdent.Replace(name) }

// Verilog renders the netlist as a structural Verilog module.
func (n *Netlist) Verilog(lib *cell.Library) string {
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
