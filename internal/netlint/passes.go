package netlint

import (
	"fmt"
	"sort"
	"strings"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// StructPass checks the netlist's own bookkeeping before any graph
// walk: net ids in range (NL000), globally unique net names (NL006),
// no collisions after Verilog sanitization (NL007), and no net listed
// twice among the primary ports (NL010). NL006/NL007 are errors
// because net names key everything downstream: the canonical-form
// synthesis cache reuses netlists via name substitution
// (gates.Netlist.Rename), and the Verilog writer declares one wire per
// sanitized name (gates.VerilogIdent, which NL007 applies too) — a
// collision silently shorts two nets.
var StructPass = &Pass{
	Name: "struct",
	Doc:  "net-id bounds, unique names, Verilog-safe names, distinct ports",
	Run:  runStruct,
}

func runStruct(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	inRange := func(id int) bool { return id >= 0 && id < len(nl.NetNames) }
	malformed := false
	badID := func(loc Loc, what string, id int) {
		r.Errorf(loc, "NL000", "%s references net %d, outside the %d declared nets",
			what, id, len(nl.NetNames))
		malformed = true
	}
	for i, inst := range nl.Instances {
		for _, in := range inst.Inputs {
			if !inRange(in) {
				badID(InstLoc(nl, i), "instance input", in)
			}
		}
		if !inRange(inst.Output) {
			badID(InstLoc(nl, i), "instance output", inst.Output)
		}
	}
	for _, id := range nl.Inputs {
		if !inRange(id) {
			badID(NoLoc, "primary input list", id)
		}
	}
	for _, id := range nl.Outputs {
		if !inRange(id) {
			badID(NoLoc, "primary output list", id)
		}
	}
	if nl.Const0 >= len(nl.NetNames) {
		badID(NoLoc, "tied-low net", nl.Const0)
	}
	if malformed {
		return // name checks below would be meaningless
	}

	byName := make(map[string]int, len(nl.NetNames))
	bySafe := make(map[string]int, len(nl.NetNames))
	for id, name := range nl.NetNames {
		if prev, ok := byName[name]; ok {
			r.Errorf(NetLoc(nl, id), "NL006",
				"net name %q already names net %d; renaming and the synthesis cache key cannot distinguish them", name, prev)
			continue
		}
		byName[name] = id
		safe := gates.VerilogIdent(name)
		if prev, ok := bySafe[safe]; ok {
			r.Errorf(NetLoc(nl, id), "NL007",
				"net %q and net %q both sanitize to Verilog identifier %q; the emitted module would short them",
				name, nl.NetNames[prev], safe)
			continue
		}
		bySafe[safe] = id
	}

	seen := map[int]string{}
	for _, id := range nl.Inputs {
		if role, dup := seen[id]; dup {
			r.Warnf(NetLoc(nl, id), "NL010", "net already listed as a primary %s", role)
		}
		seen[id] = "input"
	}
	for _, id := range nl.Outputs {
		if role, dup := seen[id]; dup {
			r.Warnf(NetLoc(nl, id), "NL010", "net already listed as a primary %s", role)
		}
		seen[id] = "output"
	}
}

// CellsPass audits every instance against the library: the cell must
// exist (NL003) and the pin count must match its declared input count
// (NL004). These are errors — gates.Netlist evaluation panics on an
// unknown cell and silently mis-evaluates on an arity mismatch.
var CellsPass = &Pass{
	Name: "cells",
	Doc:  "unknown cells and port-arity mismatches against the library",
	Run:  runCells,
}

func runCells(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	for i, inst := range nl.Instances {
		c, ok := lib.Cells[inst.Cell]
		if !ok {
			r.Errorf(InstLoc(nl, i), "NL003", "cell %q is not in library %s", inst.Cell, lib.Name)
			continue
		}
		if len(inst.Inputs) != c.Inputs {
			r.Errorf(InstLoc(nl, i), "NL004",
				"%s has %d input pins, instance connects %d", inst.Cell, c.Inputs, len(inst.Inputs))
		}
	}
}

// DriversPass builds the driver relation once and audits it: every net
// has at most one driver (NL001); every consumed net and primary
// output has a source — a driving instance, a primary input, or the
// tied-low net (NL002); primary inputs and the tied-low net are not
// also driven (NL008, NL009); and driven nets feed something (NL100,
// warning — wasted area, not wrong hardware: the net may be a scoped
// observation point).
var DriversPass = &Pass{
	Name: "drivers",
	Doc:  "multiple drivers, floating nets, driven-but-unused nets",
	Run:  runDrivers,
}

func runDrivers(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	drivers := make([][]int, len(nl.NetNames)) // net -> driving instance indices
	consumed := make([]bool, len(nl.NetNames))
	for i, inst := range nl.Instances {
		drivers[inst.Output] = append(drivers[inst.Output], i)
		for _, in := range inst.Inputs {
			consumed[in] = true
		}
	}
	isInput := make([]bool, len(nl.NetNames))
	for _, id := range nl.Inputs {
		isInput[id] = true
	}
	isOutput := make([]bool, len(nl.NetNames))
	for _, id := range nl.Outputs {
		isOutput[id] = true
	}

	for id := range nl.NetNames {
		ds := drivers[id]
		if len(ds) > 1 {
			r.Errorf(NetLoc(nl, id), "NL001", "net has %d drivers", len(ds))
			for _, i := range ds {
				r.Note("driven by g%d(%s)", i, nl.Instances[i].Cell)
			}
		}
		hasSource := len(ds) > 0 || isInput[id] || id == nl.Const0
		if !hasSource && (consumed[id] || isOutput[id]) {
			role := "consumed by gates"
			if isOutput[id] {
				role = "a primary output"
			}
			r.Errorf(NetLoc(nl, id), "NL002", "net is %s but nothing drives it", role)
		}
		if len(ds) > 0 {
			if isInput[id] {
				r.Errorf(InstNetLoc(nl, ds[0], id), "NL008", "primary input is driven by an instance")
			}
			if id == nl.Const0 {
				r.Errorf(InstNetLoc(nl, ds[0], id), "NL009", "tied-low net is driven by an instance")
			}
			if !consumed[id] && !isOutput[id] && !isInput[id] {
				r.Warnf(InstNetLoc(nl, ds[0], id), "NL100", "driven net is never consumed")
			}
		}
	}
}

// statefulKind reports whether a cell holds state: its output is a
// legal head of a feedback loop (Muller C-elements and transparent
// latches). Unknown cells (NL003) are conservatively treated as
// combinational.
func statefulKind(lib *cell.Library, name string) bool {
	c, ok := lib.Cells[name]
	if !ok {
		return false
	}
	return c.Kind == cell.C || c.Kind == cell.Latch
}

// CyclesPass finds combinational cycles (NL005): closed paths through
// instance outputs that pass through neither a stateful cell nor a
// declared feedback point. Legal loops come in two structural shapes
// here: state held in a C-element or transparent latch, and the
// Burst-Mode machines' fundamental-mode feedback, where fed-back
// outputs and y<k> state variables close combinational loops that the
// hazard-free covers plus the fundamental-mode environment make safe.
// The cut set therefore mirrors techmap.CheckMapped's forced-net set
// exactly: stateful cell outputs, primary outputs, and y<k> state nets
// (the technology mapper's state-variable naming contract). A loop
// through none of those is an oscillator or a latch-by-accident, and
// the simulator's settle loop would spin on it.
var CyclesPass = &Pass{
	Name: "cycles",
	Doc:  "combinational feedback loops outside latches, C-elements and fundamental-mode feedback nets",
	Run:  runCycles,
}

// stateNet reports whether a net name is a Burst-Mode state variable:
// its final dot-segment is y<digits> (merged circuits namespace part
// internals as "part.net", so the prefix is stripped).
func stateNet(name string) bool {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	if len(name) < 2 || name[0] != 'y' {
		return false
	}
	for i := 1; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

func runCycles(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	// driver[net] = the instance driving it (-1 none), from the
	// netlist's cached index. NL001 already flags multi-driver nets;
	// the walk takes the first driver, as the index records.
	driver := nl.DriverIndex()
	cut := make([]bool, len(nl.NetNames))
	for _, id := range nl.Outputs {
		cut[id] = true
	}
	for id, name := range nl.NetNames {
		if stateNet(name) {
			cut[id] = true
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]int, len(nl.NetNames))
	reported := map[string]bool{}
	var path []int // net ids on the current DFS path
	var visit func(net int)
	visit = func(net int) {
		state[net] = gray
		path = append(path, net)
		if d := driver[net]; d >= 0 && !cut[net] && !statefulKind(lib, nl.Instances[d].Cell) {
			for _, in := range nl.Instances[d].Inputs {
				switch state[in] {
				case white:
					visit(in)
				case gray:
					reportCycle(nl, r, reported, path, in)
				}
			}
		}
		path = path[:len(path)-1]
		state[net] = black
	}
	for net := range nl.NetNames {
		if state[net] == white {
			visit(net)
		}
	}
}

// reportCycle extracts the cycle closed by back-edge to `to` from the
// DFS path and reports it once (cycles are canonicalized on their
// sorted net-id set, so each loop reports from one entry only).
func reportCycle(nl *gates.Netlist, r *Reporter, reported map[string]bool, path []int, to int) {
	start := 0
	for i, n := range path {
		if n == to {
			start = i
			break
		}
	}
	cycle := append([]int(nil), path[start:]...)
	ids := append([]int(nil), cycle...)
	sort.Ints(ids)
	key := fmt.Sprint(ids)
	if reported[key] {
		return
	}
	reported[key] = true
	r.Errorf(NetLoc(nl, to), "NL005",
		"combinational cycle through %d nets with no latch or C-element", len(cycle))
	// The DFS walks driver edges backwards (output to input), so the
	// recorded path lists the loop against signal flow; reverse it for
	// the note, which then reads source → sink.
	drivers := nl.DriverIndex()
	for i := len(cycle) - 1; i >= 0; i-- {
		net := cycle[i]
		d := drivers[net]
		if d >= 0 {
			r.Note("net %q driven by g%d(%s)", nl.NetNames[net], d, nl.Instances[d].Cell)
		} else {
			r.Note("net %q", nl.NetNames[net])
		}
	}
}

// DeadPass marks instances from which no primary output is reachable
// (NL101, warning): the gate's output cone never leaves the circuit,
// so it contributes area and power but no behaviour. The walk follows
// fanout through all cells (stateful included — a C-element feeding
// only dead logic is dead too).
var DeadPass = &Pass{
	Name: "dead",
	Doc:  "gates with no path to any primary output",
	Run:  runDead,
}

func runDead(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	live := make([]bool, len(nl.NetNames))
	for _, id := range nl.Outputs {
		live[id] = true
	}
	// Fixpoint: an instance is live when its output net is live; its
	// input nets then become live. Iterate until no change (instance
	// count bounds the rounds).
	for {
		changed := false
		for _, inst := range nl.Instances {
			if !live[inst.Output] {
				continue
			}
			for _, in := range inst.Inputs {
				if !live[in] {
					live[in] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i, inst := range nl.Instances {
		if !live[inst.Output] {
			r.Warnf(InstNetLoc(nl, i, inst.Output), "NL101",
				"gate output reaches no primary output")
		}
	}
}

// ReportPass emits the static report (NL200, info): cell/net/literal/
// transistor counts, library area, longest topological gate depth and
// the critical register-free delay — the static face of the Table 3
// area numbers, computed without a simulation.
var ReportPass = &Pass{
	Name: "report",
	Doc:  "static literal/transistor-weighted area and depth report",
	Run:  runReport,
}

func runReport(nl *gates.Netlist, lib *cell.Library, r *Reporter) {
	st := ComputeStats(nl, lib)
	r.Infof(NoLoc, "NL200", "static report: %s", st)
}
