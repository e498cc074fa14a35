// This file extends the compiled evaluator with a ternary (0/1/X)
// lane mode for static hazard verification (internal/hazver). Values
// follow Kleene's strong three-valued logic in a dual-rail encoding:
// every net carries two uint64 words, hi ("can settle to 1") and lo
// ("can settle to 0"); bit l of each word is lane l's value, so one
// pass evaluates 64 independent ternary vectors. 0 = (hi 0, lo 1),
// 1 = (hi 1, lo 0), X = (hi 1, lo 1). The encoding makes the Kleene
// connectives pure bitwise ops — NOT swaps the rails, AND is
// (hi1&hi2, lo1|lo2), OR is its dual — and arbitrary cells evaluate
// exactly through their truth table by dual minterm expansion: a lane
// can be 1 iff some ON-set minterm is consistent with its ternary
// inputs, can be 0 iff some OFF-set minterm is. Stateful cells (C
// elements, latches) fold the previous-output rails in as one more
// table variable, which on probe evaluation is the forced net's
// assigned value — the same fundamental-mode feedback convention as
// the boolean Eval.
//
// TernaryEval is the evaluator hazver runs; SettleTernary and
// DriveTernary are the interpreted reference the tests hold it to, a
// ternary fixed-point sweep in the style of Netlist.Settle.
package gates

import (
	"fmt"

	"balsabm/internal/cell"
)

// Ternary net values. The zero value is logic 0, matching the boolean
// evaluator's power-up state; TX is "unknown / may glitch".
const (
	T0 uint8 = 0
	T1 uint8 = 1
	TX uint8 = 2
)

// TernString renders a ternary value as "0", "1" or "X".
func TernString(v uint8) string {
	switch v {
	case T0:
		return "0"
	case T1:
		return "1"
	default:
		return "X"
	}
}

// ternOp is the per-op ternary strategy, precomputed by NewTernaryEval
// so the hot loop never re-derives truth tables.
type ternOp uint8

const (
	tnRAIL ternOp = iota // kind-specialized rail formula (exact Kleene)
	tnLUT                // dual minterm expansion over tab (exact Kleene)
	tnSLOW               // per-lane interpreted cell evaluation
)

// TernaryEval is the mutable ternary evaluation state for one
// goroutine: two lane words per net. Create one per worker with
// NewTernaryEval; a TernaryEval must not be shared concurrently.
type TernaryEval struct {
	prog   *Program
	hi, lo []uint64
	strat  []ternOp    // per prog.ops entry
	tabs   [][2]uint64 // per prog.ops entry (tnLUT)
	pstrat []ternOp    // per prog.probeOps entry
	ptabs  [][2]uint64
	slow   []uint8 // tnSLOW per-lane scratch
	sben   []bool  // ternaryCell enumeration scratch
	xd     []uint8 // per-lane X depth, flat [net*64+lane]
	xdOK   bool
}

// ternStrategy picks the evaluation strategy for one compiled op.
func ternStrategy(op *evalOp) (ternOp, [2]uint64) {
	switch op.kind {
	case opBUF, opINV, opAND, opNAND, opOR, opNOR, opXOR:
		return tnRAIL, [2]uint64{}
	case opLUT:
		return tnLUT, op.tab
	default: // opC, opLATCH, opSLOW
		if op.cell != nil && len(op.ins) == op.cell.Inputs {
			if tab, ok := op.cell.TruthTable(); ok {
				return tnLUT, tab
			}
		}
		return tnSLOW, [2]uint64{}
	}
}

// NewTernaryEval allocates ternary evaluation state for the program.
func (p *Program) NewTernaryEval() *TernaryEval {
	e := &TernaryEval{
		prog:   p,
		hi:     make([]uint64, p.nets),
		lo:     make([]uint64, p.nets),
		strat:  make([]ternOp, len(p.ops)),
		tabs:   make([][2]uint64, len(p.ops)),
		pstrat: make([]ternOp, len(p.probeOps)),
		ptabs:  make([][2]uint64, len(p.probeOps)),
		slow:   make([]uint8, p.maxIns),
		sben:   make([]bool, p.maxIns+1),
	}
	for i := range p.ops {
		e.strat[i], e.tabs[i] = ternStrategy(&p.ops[i])
	}
	for i := range p.probeOps {
		e.pstrat[i], e.ptabs[i] = ternStrategy(&p.probeOps[i])
	}
	return e
}

// Reset sets every net to X in every lane — the "no assumptions"
// starting state. Callers then Assign the binary source values and
// leave changing burst inputs at X.
func (e *TernaryEval) Reset() {
	for i := range e.hi {
		e.hi[i] = ^uint64(0)
		e.lo[i] = ^uint64(0)
	}
	e.xdOK = false
}

// Assign gives a source net a ternary value in one lane. After Reset
// every lane is X, so assigning T0/T1 narrows the lane and TX is a
// no-op.
func (e *TernaryEval) Assign(net int, lane uint, v uint8) {
	switch v {
	case T0:
		e.hi[net] &^= 1 << lane
	case T1:
		e.lo[net] &^= 1 << lane
	}
}

// Word reads a net's dual-rail lane words after Run.
func (e *TernaryEval) Word(net int) (hi, lo uint64) { return e.hi[net], e.lo[net] }

// At reads one lane's ternary value after Run.
func (e *TernaryEval) At(net int, lane uint) uint8 {
	return ternFromBits(e.hi[net]>>lane&1, e.lo[net]>>lane&1)
}

func ternFromBits(h, l uint64) uint8 {
	switch {
	case h != 0 && l == 0:
		return T1
	case h == 0 && l != 0:
		return T0
	default:
		return TX
	}
}

// Run executes the levelized ternary pass: one evaluation per gate,
// no fixed-point iteration.
func (e *TernaryEval) Run() {
	ops := e.prog.ops
	for i := range ops {
		op := &ops[i]
		h, l := e.apply3(op, e.strat[i], e.tabs[i])
		e.hi[op.out], e.lo[op.out] = h, l
	}
	e.xdOK = false
}

// Driver evaluates the probe instance driving a forced net against
// the current ternary lane values, reporting ok=false if the net has
// no driver. The net's own assigned rails serve as the previous
// output for stateful probes.
func (e *TernaryEval) Driver(net int) (hi, lo uint64, ok bool) {
	pi, found := e.prog.probes[net]
	if !found {
		return 0, 0, false
	}
	h, l := e.apply3(&e.prog.probeOps[pi], e.pstrat[pi], e.ptabs[pi])
	return h, l, true
}

func (e *TernaryEval) apply3(op *evalOp, strat ternOp, tab [2]uint64) (uint64, uint64) {
	hi, lo := e.hi, e.lo
	ins := op.ins
	switch strat {
	case tnRAIL:
		switch op.kind {
		case opBUF:
			return hi[ins[0]], lo[ins[0]]
		case opINV:
			return lo[ins[0]], hi[ins[0]]
		case opAND, opNAND:
			h, l := hi[ins[0]], lo[ins[0]]
			for _, in := range ins[1:] {
				h &= hi[in]
				l |= lo[in]
			}
			if op.kind == opNAND {
				h, l = l, h
			}
			return h, l
		case opOR, opNOR:
			h, l := hi[ins[0]], lo[ins[0]]
			for _, in := range ins[1:] {
				h |= hi[in]
				l &= lo[in]
			}
			if op.kind == opNOR {
				h, l = l, h
			}
			return h, l
		default: // opXOR: fold pairwise; exact, every input appears once
			h, l := hi[ins[0]], lo[ins[0]]
			for _, in := range ins[1:] {
				h2, l2 := hi[in], lo[in]
				h, l = h&l2|l&h2, h&h2|l&l2
			}
			return h, l
		}
	case tnLUT:
		if tab[0] == tab[1] {
			return lutTernary(tab[0], ins, hi, lo, ^uint64(0))
		}
		// Stateful: the previous output is one more table variable,
		// with the net's current rails as its possibilities.
		h0, l0 := lutTernary(tab[0], ins, hi, lo, lo[op.out])
		h1, l1 := lutTernary(tab[1], ins, hi, lo, hi[op.out])
		return h0 | h1, l0 | l1
	default: // tnSLOW: per-lane interpreted evaluation
		scratch := e.slow[:len(ins)]
		var h, l uint64
		for ln := uint(0); ln < 64; ln++ {
			for j, in := range ins {
				scratch[j] = ternFromBits(hi[in]>>ln&1, lo[in]>>ln&1)
			}
			prev := ternFromBits(hi[op.out]>>ln&1, lo[op.out]>>ln&1)
			switch ternaryCell(op.cell, scratch, prev, e.sben) {
			case T1:
				h |= 1 << ln
			case T0:
				l |= 1 << ln
			default:
				h |= 1 << ln
				l |= 1 << ln
			}
		}
		return h, l
	}
}

// lutTernary evaluates a truth table over ternary lanes by dual
// minterm expansion: a lane can be 1 iff some ON-set minterm is
// consistent with the inputs' rails, can be 0 iff some OFF-set
// minterm is. mask gates every term (the stateful previous-output
// factor; all-ones when there is none).
func lutTernary(tab uint64, ins []int32, hi, lo []uint64, mask uint64) (h, l uint64) {
	if mask == 0 {
		return 0, 0
	}
	n := uint(len(ins))
	for m := uint(0); m < 1<<n; m++ {
		term := mask
		for j, in := range ins {
			if m>>uint(j)&1 != 0 {
				term &= hi[in]
			} else {
				term &= lo[in]
			}
		}
		if tab>>m&1 != 0 {
			h |= term
		} else {
			l |= term
		}
	}
	return h, l
}

// computeXD fills the per-lane X-propagation depth table: an X net's
// depth is 1 + the maximum depth of its X inputs in the same lane
// (sources and binary nets are depth 0). Because the ops are
// levelized this is a single sweep.
func (e *TernaryEval) computeXD() {
	if e.xdOK {
		return
	}
	if e.xd == nil {
		e.xd = make([]uint8, len(e.hi)*64)
	} else {
		for i := range e.xd {
			e.xd[i] = 0
		}
	}
	ops := e.prog.ops
	for i := range ops {
		op := &ops[i]
		xm := e.hi[op.out] & e.lo[op.out]
		if xm == 0 {
			continue
		}
		base := int(op.out) * 64
		for ln := uint(0); ln < 64; ln++ {
			if xm>>ln&1 == 0 {
				continue
			}
			d := uint8(0)
			for _, in := range op.ins {
				if e.hi[in]>>ln&1 != 0 && e.lo[in]>>ln&1 != 0 {
					if v := e.xd[int(in)*64+int(ln)]; v > d {
						d = v
					}
				}
			}
			if d < 255 {
				d++
			}
			e.xd[base+int(ln)] = d
		}
	}
	e.xdOK = true
}

// DriverXDepth returns the worst-case X-propagation depth of the
// probe driving a forced net over the selected lanes: the length of
// the longest chain of X-valued nets feeding an X driver output, 0
// when the driver is binary in every selected lane or the net has no
// driver.
func (e *TernaryEval) DriverXDepth(net int, lanes uint64) int {
	pi, found := e.prog.probes[net]
	if !found {
		return 0
	}
	op := &e.prog.probeOps[pi]
	h, l := e.apply3(op, e.pstrat[pi], e.ptabs[pi])
	xm := h & l & lanes
	if xm == 0 {
		return 0
	}
	e.computeXD()
	best := 0
	for ln := uint(0); ln < 64; ln++ {
		if xm>>ln&1 == 0 {
			continue
		}
		d := 0
		for _, in := range op.ins {
			if e.hi[in]>>ln&1 != 0 && e.lo[in]>>ln&1 != 0 {
				if v := int(e.xd[int(in)*64+int(ln)]); v > d {
					d = v
				}
			}
		}
		if d+1 > best {
			best = d + 1
		}
	}
	return best
}

// ternaryCell evaluates one cell over ternary inputs exactly, by
// enumerating every binary completion of the X inputs (and of the
// previous output, which stateful cells read) through cell.Eval.
// scratch must hold at least len(ins)+1 bools.
func ternaryCell(c *cell.Cell, ins []uint8, prev uint8, scratch []bool) uint8 {
	bins := scratch[:len(ins)]
	var xs []int // indices into ins that are X; -1 stands for prev
	for j, v := range ins {
		bins[j] = v == T1
		if v == TX {
			xs = append(xs, j)
		}
	}
	pv := prev == T1
	if prev == TX {
		xs = append(xs, -1)
	}
	if len(xs) > 20 {
		return TX // give up enumerating; conservative
	}
	saw0, saw1 := false, false
	for m := 0; m < 1<<uint(len(xs)); m++ {
		for bi, j := range xs {
			b := m>>uint(bi)&1 != 0
			if j < 0 {
				pv = b
			} else {
				bins[j] = b
			}
		}
		if c.Eval(bins, pv) {
			saw1 = true
		} else {
			saw0 = true
		}
		if saw0 && saw1 {
			return TX
		}
	}
	if saw1 {
		return T1
	}
	return T0
}

// SettleTernary is the interpreted ternary reference evaluator: a
// fixed-point sweep over the instances, skipping drivers of forced
// nets exactly as the boolean settle loops do. vals must have one
// entry per net, pre-loaded by the caller (typically all TX, then
// binary values on the forced cut points and stable inputs). It is
// the oracle the compiled TernaryEval is fuzzed against.
func SettleTernary(nl *Netlist, lib *cell.Library, forced map[int]bool, vals []uint8) error {
	if len(vals) != len(nl.NetNames) {
		return fmt.Errorf("gates: ternary settle %s: got %d values for %d nets", nl.Name, len(vals), len(nl.NetNames))
	}
	ins := make([]uint8, 0, 8)
	scratch := make([]bool, 16)
	limit := 4*len(nl.Instances) + 16
	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("gates: ternary settle %s: evaluation did not settle", nl.Name)
		}
		changed := false
		for i := range nl.Instances {
			inst := &nl.Instances[i]
			if forced[inst.Output] {
				continue
			}
			c, ok := lib.Cells[inst.Cell]
			if !ok {
				return fmt.Errorf("gates: ternary settle %s: g%d: no cell %q in library %s", nl.Name, i, inst.Cell, lib.Name)
			}
			ins = ins[:0]
			for _, in := range inst.Inputs {
				ins = append(ins, vals[in])
			}
			if len(ins)+1 > len(scratch) {
				scratch = make([]bool, len(ins)+1)
			}
			nv := ternaryCell(c, ins, vals[inst.Output], scratch)
			if nv != vals[inst.Output] {
				vals[inst.Output] = nv
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

// DriveTernary evaluates the instance driving a net (drv is the
// caller's nl.DriverIndex()) over settled ternary values, with the
// net's own value as the stateful previous output. ok is false when
// the net has no driver.
func DriveTernary(nl *Netlist, lib *cell.Library, drv []int, vals []uint8, net int) (uint8, bool) {
	if net < 0 || net >= len(drv) || drv[net] < 0 {
		return TX, false
	}
	inst := &nl.Instances[drv[net]]
	c, ok := lib.Cells[inst.Cell]
	if !ok {
		return TX, false
	}
	ins := make([]uint8, len(inst.Inputs))
	for j, in := range inst.Inputs {
		ins[j] = vals[in]
	}
	scratch := make([]bool, len(ins)+1)
	return ternaryCell(c, ins, vals[net], scratch), true
}
