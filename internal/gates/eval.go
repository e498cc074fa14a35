// This file implements the compiled bit-parallel netlist evaluation
// engine behind the mapped-logic hazard audit (techmap.CheckMapped)
// and other settle-style consumers. Compile performs the one-time
// work the interpreted settle loop repeated per sample point —
// string-keyed cell lookups, driver scans, per-gate input buffers —
// and produces a Program: a levelized sequence of int-indexed ops
// over flat arrays. Evaluation is then a single allocation-free
// topological pass instead of a fixed-point iteration, and it is
// 64-way lane-parallel: every net carries a uint64 whose bit l is the
// net's value at sample point l, so one pass settles 64 independent
// points.
//
// Forced nets — the audit's cut points (primary outputs and y* state
// bits under fundamental-mode feedback) — are treated as sources:
// their values come from the caller, the instances driving them are
// excluded from the settle pass and kept aside as probes that
// Eval.Driver recomputes on demand (the compiled form of the audit's
// evalDriver). If cutting the forced nets leaves a combinational
// cycle, or a stateful cell drives an unforced net (its settled value
// would depend on the interpreted loop's evaluation order, which a
// single levelized pass cannot reproduce), Compile reports an error:
// techmap.CheckMapped then falls back to its interpreted loop, and
// hazver reports the unit as HZ000.
package gates

import (
	"fmt"

	"balsabm/internal/cell"
)

// opKind selects a lane-parallel evaluation routine. Recognized cell
// kinds get direct bitwise forms; anything else uses the cell's
// truth-table LUT (cells ≤6 inputs) or a per-lane slow-path closure
// over cell.Eval.
type opKind uint8

const (
	opBUF opKind = iota
	opINV
	opAND
	opNAND
	opOR
	opNOR
	opXOR
	opC
	opLATCH
	opLUT
	opSLOW
)

// evalOp is one compiled instance: output net, input nets, and how to
// combine the input lane words.
type evalOp struct {
	kind opKind
	out  int32
	ins  []int32
	tab  [2]uint64  // truth tables by previous output (opLUT)
	cell *cell.Cell // slow-path cell (opSLOW)
}

// Program is a compiled netlist evaluator. It is immutable after
// Compile and safe to share across goroutines; per-goroutine mutable
// state lives in Eval.
type Program struct {
	name     string
	nets     int
	ops      []evalOp    // levelized: every op's inputs precede it
	probes   map[int]int // forced net -> index into probeOps
	probeOps []evalOp
	maxIns   int
}

// Nets returns the number of nets the program evaluates over.
func (p *Program) Nets() int { return p.nets }

// Ops returns the number of levelized settle ops (excluding probes).
func (p *Program) Ops() int { return len(p.ops) }

// HasDriver reports whether the forced net has a driving instance
// recorded as a probe (the compiled analogue of Netlist.Driver >= 0
// for forced nets).
func (p *Program) HasDriver(net int) bool {
	_, ok := p.probes[net]
	return ok
}

// compiledCell is the per-cell compilation: interned once per distinct
// cell name so the instance loop never touches the string-keyed
// library map again.
type compiledCell struct {
	kind opKind
	tab  [2]uint64
	c    *cell.Cell
}

func compileCell(c *cell.Cell) compiledCell {
	cc := compiledCell{c: c}
	switch c.Kind {
	case cell.Buf:
		cc.kind = opBUF
	case cell.Inv:
		cc.kind = opINV
	case cell.And:
		cc.kind = opAND
	case cell.Nand:
		cc.kind = opNAND
	case cell.Or:
		cc.kind = opOR
	case cell.Nor:
		cc.kind = opNOR
	case cell.Xor:
		cc.kind = opXOR
	case cell.C:
		cc.kind = opC
	case cell.Latch:
		cc.kind = opLATCH
	default:
		if tab, ok := c.TruthTable(); ok {
			cc.kind, cc.tab = opLUT, tab
		} else {
			cc.kind = opSLOW
		}
	}
	return cc
}

// Compile builds the evaluation program for a netlist: cell names
// interned to per-cell ops, a driver index, and the gate graph
// levelized topologically with the forced nets as cut points. forced
// may be nil. Compile fails when a cell is missing from the library or
// wired with too few pins, a non-forced net has several drivers, a
// stateful cell drives a non-forced net, or the forced cut leaves a
// combinational cycle.
func Compile(nl *Netlist, lib *cell.Library, forced map[int]bool) (*Program, error) {
	p := &Program{name: nl.Name, nets: len(nl.NetNames), probes: map[int]int{}}
	cells := make(map[string]compiledCell)
	mkOp := func(i int) (evalOp, error) {
		inst := &nl.Instances[i]
		cc, ok := cells[inst.Cell]
		if !ok {
			c, found := lib.Cells[inst.Cell]
			if !found {
				return evalOp{}, fmt.Errorf("gates: compile %s: g%d: no cell %q in library %s",
					nl.Name, i, inst.Cell, lib.Name)
			}
			cc = compileCell(c)
			cells[inst.Cell] = cc
		}
		need := 1
		if cc.kind == opLATCH {
			need = 2
		}
		if len(inst.Inputs) < need {
			return evalOp{}, fmt.Errorf("gates: compile %s: g%d: %s wired with %d inputs",
				nl.Name, i, inst.Cell, len(inst.Inputs))
		}
		op := evalOp{kind: cc.kind, out: int32(inst.Output), tab: cc.tab, cell: cc.c}
		if cc.kind == opLUT && len(inst.Inputs) != cc.c.Inputs {
			op.kind = opSLOW // the LUT is indexed by the declared pin count
		}
		op.ins = make([]int32, len(inst.Inputs))
		for j, in := range inst.Inputs {
			if in < 0 || in >= p.nets {
				return evalOp{}, fmt.Errorf("gates: compile %s: g%d: input net %d out of range", nl.Name, i, in)
			}
			op.ins[j] = int32(in)
		}
		if len(op.ins) > p.maxIns {
			p.maxIns = len(op.ins)
		}
		return op, nil
	}

	// Partition instances: drivers of forced nets become probes
	// (excluded from the settle, exactly as the interpreted loop skips
	// them); the rest are the computed set to levelize.
	computedDrv := make([]bool, p.nets)
	var computed []int
	compiledOps := map[int]evalOp{}
	for i := range nl.Instances {
		out := nl.Instances[i].Output
		if out < 0 || out >= p.nets {
			return nil, fmt.Errorf("gates: compile %s: g%d: output net %d out of range", nl.Name, i, out)
		}
		op, err := mkOp(i)
		if err != nil {
			return nil, err
		}
		if forced[out] {
			if _, dup := p.probes[out]; !dup { // first driver wins, as in Netlist.Driver
				p.probes[out] = len(p.probeOps)
				p.probeOps = append(p.probeOps, op)
			}
			continue
		}
		if computedDrv[out] {
			return nil, fmt.Errorf("gates: compile %s: net %q has several drivers", nl.Name, nl.NetNames[out])
		}
		if op.kind == opC || op.kind == opLATCH || op.tab[0] != op.tab[1] {
			return nil, fmt.Errorf("gates: compile %s: stateful cell %s drives unforced net %q",
				nl.Name, nl.Instances[i].Cell, nl.NetNames[out])
		}
		computedDrv[out] = true
		computed = append(computed, i)
		compiledOps[i] = op
	}

	// Kahn levelization over the computed instances. A net is ready
	// when no computed instance drives it: forced nets, primary
	// inputs, undriven nets and probe outputs are all sources.
	ready := make([]bool, p.nets)
	for net := range ready {
		ready[net] = !computedDrv[net]
	}
	indeg := make([]int, len(computed))
	deps := make([][]int32, p.nets) // net -> computed positions waiting on it (one entry per pin)
	for ci, ii := range computed {
		for _, in := range nl.Instances[ii].Inputs {
			if !ready[in] {
				indeg[ci]++
				deps[in] = append(deps[in], int32(ci))
			}
		}
	}
	queue := make([]int32, 0, len(computed))
	for ci := range computed {
		if indeg[ci] == 0 {
			queue = append(queue, int32(ci))
		}
	}
	p.ops = make([]evalOp, 0, len(computed))
	for qi := 0; qi < len(queue); qi++ {
		ci := queue[qi]
		ii := computed[ci]
		p.ops = append(p.ops, compiledOps[ii])
		out := nl.Instances[ii].Output
		ready[out] = true
		for _, d := range deps[out] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(p.ops) != len(computed) {
		for ci, ii := range computed {
			if indeg[ci] > 0 {
				return nil, fmt.Errorf("gates: compile %s: combinational cycle through net %q not cut by a forced net",
					nl.Name, nl.NetNames[nl.Instances[ii].Output])
			}
		}
	}
	return p, nil
}

// Eval is the mutable evaluation state for one goroutine: one lane
// word per net (bit l = the net's value at sample point l). Create
// one per worker with NewEval; an Eval must not be shared
// concurrently.
type Eval struct {
	prog  *Program
	lanes []uint64
	slow  []bool // opSLOW per-lane scratch
}

// NewEval allocates evaluation state for the program.
func (p *Program) NewEval() *Eval {
	return &Eval{prog: p, lanes: make([]uint64, p.nets), slow: make([]bool, p.maxIns)}
}

// Reset zeroes every lane word (the power-up/zero-history state the
// interpreted settle starts from).
func (e *Eval) Reset() {
	for i := range e.lanes {
		e.lanes[i] = 0
	}
}

// Set assigns a source net's 64 lane values (forced nets and primary
// inputs; assigning a computed net is overwritten by Run).
func (e *Eval) Set(net int, w uint64) { e.lanes[net] = w }

// Word reads a net's lane word after Run.
func (e *Eval) Word(net int) uint64 { return e.lanes[net] }

// Run executes the levelized pass: one evaluation per gate, no
// fixed-point iteration, no allocation.
func (e *Eval) Run() {
	ops := e.prog.ops
	for i := range ops {
		op := &ops[i]
		e.lanes[op.out] = e.apply(op)
	}
}

// Driver evaluates the probe instance driving a forced net against
// the current lane values — the compiled form of the audit's
// evalDriver — reporting false if the net has no driver. The net's
// forced word itself serves as the previous output for stateful
// probes, as in the interpreted reference.
func (e *Eval) Driver(net int) (uint64, bool) {
	pi, ok := e.prog.probes[net]
	if !ok {
		return 0, false
	}
	return e.apply(&e.prog.probeOps[pi]), true
}

func (e *Eval) apply(op *evalOp) uint64 {
	lanes := e.lanes
	ins := op.ins
	switch op.kind {
	case opBUF:
		return lanes[ins[0]]
	case opINV:
		return ^lanes[ins[0]]
	case opAND, opNAND:
		w := lanes[ins[0]]
		for _, in := range ins[1:] {
			w &= lanes[in]
		}
		if op.kind == opNAND {
			w = ^w
		}
		return w
	case opOR, opNOR:
		w := lanes[ins[0]]
		for _, in := range ins[1:] {
			w |= lanes[in]
		}
		if op.kind == opNOR {
			w = ^w
		}
		return w
	case opXOR:
		w := lanes[ins[0]]
		for _, in := range ins[1:] {
			w ^= lanes[in]
		}
		return w
	case opC:
		all1 := ^uint64(0)
		any1 := uint64(0)
		for _, in := range ins {
			v := lanes[in]
			all1 &= v
			any1 |= v
		}
		// Lanes where all inputs agree follow them; the rest hold.
		return all1 | lanes[op.out]&any1
	case opLATCH:
		en := lanes[ins[0]]
		return en&lanes[ins[1]] | ^en&lanes[op.out]
	case opLUT:
		prev := lanes[op.out]
		w := lutLanes(op.tab[0], ins, lanes)
		if op.tab[1] != op.tab[0] && prev != 0 {
			w = w&^prev | lutLanes(op.tab[1], ins, lanes)&prev
		}
		return w
	default: // opSLOW
		prev := lanes[op.out]
		scratch := e.slow[:len(ins)]
		var out uint64
		for l := uint(0); l < 64; l++ {
			for j, in := range ins {
				scratch[j] = lanes[in]>>l&1 != 0
			}
			if op.cell.Eval(scratch, prev>>l&1 != 0) {
				out |= 1 << l
			}
		}
		return out
	}
}

// lutLanes evaluates a ≤6-input truth table lane-parallel by minterm
// expansion: each set table bit contributes the AND of its input
// polarities across all 64 lanes.
func lutLanes(tab uint64, ins []int32, lanes []uint64) uint64 {
	var out uint64
	n := uint(len(ins))
	for m := uint(0); m < 1<<n; m++ {
		if tab>>m&1 == 0 {
			continue
		}
		term := ^uint64(0)
		for j, in := range ins {
			if m>>uint(j)&1 != 0 {
				term &= lanes[in]
			} else {
				term &^= lanes[in]
			}
		}
		out |= term
	}
	return out
}
