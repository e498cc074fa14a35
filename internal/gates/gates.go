// Package gates models mapped gate-level netlists: instances of library
// cells connected by named nets, with area/critical-path reporting, a
// functional evaluator (used by equivalence and hazard audits and by
// the event simulator) and a structural Verilog writer (the paper's
// tech-mapped controllers are exchanged as structural Verilog).
package gates

import (
	"fmt"
	"sort"
	"strconv"
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

// identBytes maps each byte of a net name to the byte its Verilog
// identifier holds: identifiers may not hold '$', '+', '-' or '.'. The
// rewrite keeps a name's length.
var identBytes = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	t['$'], t['+'], t['-'], t['.'] = '_', 'p', 'm', '_'
	return t
}()

// VerilogIdent returns the identifier Netlist.Verilog prints for a net
// name. Distinct names can map to one identifier; netlint reports that
// as NL007.
func VerilogIdent(name string) string {
	for i := 0; i < len(name); i++ {
		if identBytes[name[i]] != name[i] {
			var sb strings.Builder
			sb.Grow(len(name))
			writeIdent(&sb, name)
			return sb.String()
		}
	}
	return name
}

// writeIdent appends name's Verilog identifier to sb.
func writeIdent(sb *strings.Builder, name string) {
	for i := 0; i < len(name); i++ {
		sb.WriteByte(identBytes[name[i]])
	}
}

// Verilog renders the netlist as a structural Verilog module.
func (n *Netlist) Verilog(lib *cell.Library) string {
	var sb strings.Builder
	n.WriteVerilog(&sb, lib)
	return sb.String()
}

// WriteVerilog appends the text Verilog returns to sb, growing it once
// to the module's size. Each net's identifier is computed once, as a
// window of one string holding them all.
func (n *Netlist) WriteVerilog(sb *strings.Builder, lib *cell.Library) {
	var all strings.Builder
	total := 0
	for _, name := range n.NetNames {
		total += len(name)
	}
	all.Grow(total)
	for _, name := range n.NetNames {
		writeIdent(&all, name)
	}
	idents := all.String()
	ids := make([]string, len(n.NetNames))
	for id, name := range n.NetNames {
		ids[id], idents = idents[:len(name)], idents[len(name):]
	}
	declared := make([]bool, len(n.NetNames))
	for _, in := range n.Inputs {
		declared[in] = true
	}
	for _, out := range n.Outputs {
		declared[out] = true
	}
	wires := make([]string, 0, len(n.NetNames))
	for id, d := range declared {
		if !d {
			wires = append(wires, ids[id])
		}
	}
	sort.Strings(wires)

	var num [20]byte
	size := len("module  ();\n") + len(n.Name) + len("endmodule\n")
	for _, in := range n.Inputs {
		size += len(", ") + len("  input ;\n") + 2*len(ids[in])
	}
	for _, out := range n.Outputs {
		size += len(", ") + len("  output ;\n") + 2*len(ids[out])
	}
	for _, w := range wires {
		size += len("  wire ;\n") + len(w)
	}
	if n.Const0 >= 0 {
		size += len("  assign  = 1'b0;\n") + len(ids[n.Const0])
	}
	for i, inst := range n.Instances {
		size += len("   g (); // module \n") + len(inst.Cell) + len(ids[inst.Output]) +
			len(strconv.AppendInt(num[:0], int64(i), 10)) + len(strconv.AppendInt(num[:0], int64(inst.Module), 10))
		for _, in := range inst.Inputs {
			size += len(", ") + len(ids[in])
		}
	}
	sb.Grow(size)

	sb.WriteString("module ")
	for i := 0; i < len(n.Name); i++ {
		if c := n.Name[i]; c == '-' {
			sb.WriteByte('_')
		} else {
			sb.WriteByte(c)
		}
	}
	sb.WriteString(" (")
	sep := ""
	for _, ports := range [][]int{n.Inputs, n.Outputs} {
		for _, p := range ports {
			sb.WriteString(sep)
			sb.WriteString(ids[p])
			sep = ", "
		}
	}
	sb.WriteString(");\n")
	for _, in := range n.Inputs {
		sb.WriteString("  input ")
		sb.WriteString(ids[in])
		sb.WriteString(";\n")
	}
	for _, out := range n.Outputs {
		sb.WriteString("  output ")
		sb.WriteString(ids[out])
		sb.WriteString(";\n")
	}
	for _, w := range wires {
		sb.WriteString("  wire ")
		sb.WriteString(w)
		sb.WriteString(";\n")
	}
	if n.Const0 >= 0 {
		sb.WriteString("  assign ")
		sb.WriteString(ids[n.Const0])
		sb.WriteString(" = 1'b0;\n")
	}
	for i, inst := range n.Instances {
		sb.WriteString("  ")
		sb.WriteString(inst.Cell)
		sb.WriteString(" g")
		sb.Write(strconv.AppendInt(num[:0], int64(i), 10))
		sb.WriteString(" (")
		sb.WriteString(ids[inst.Output])
		for _, in := range inst.Inputs {
			sb.WriteString(", ")
			sb.WriteString(ids[in])
		}
		sb.WriteString("); // module ")
		sb.Write(strconv.AppendInt(num[:0], int64(inst.Module), 10))
		sb.WriteString("\n")
	}
	sb.WriteString("endmodule\n")
}
