package hazver

import (
	"fmt"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/logic"
)

// auditInterpreted is Audit on the interpreted ternary settle: each
// pass settles its unit's netlist with gates.SettleTernary and reads
// the function's driver with gates.DriveTernary, one pass at a time.
// It shares Audit's plan and judgement, so the two differ only in the
// evaluator: it is the reference the compiled audit is held to.
func auditInterpreted(name string, units []Unit, lib *cell.Library) Result {
	a := newAuditor(name, units, lib)
	out := a.newOut()
	for pi := range a.passes {
		a.runInterp(lib, &a.passes[pi], &out)
	}
	return a.result([]batchOut{out})
}

// assignment returns the ternary variable assignment of one pass over
// the pass's unit variables, reusing the transition's own burst-cube
// math (hfmin.Transition.Cube): start/end points are the binary
// endpoints, the static pass is the transition supercube (changed
// variables at X), and the subcube pass holds one changed variable at
// its start value inside that supercube. It is the oracle of the
// compiled audit's lane assignment (passValue).
func (a *auditor) assignment(p *tpass) logic.Cube {
	t := &a.fns[p.fn].trs[p.tr]
	switch p.kind {
	case passStart:
		return logic.Point(t.Start)
	case passEnd:
		return logic.Point(t.End)
	case passStatic:
		return t.Cube()
	default: // passSub
		c := t.Cube()
		c[p.vhold] = logic.Point(t.Start)[p.vhold]
		return c
	}
}

func litTern(l logic.Lit) uint8 {
	switch l {
	case logic.Zero:
		return gates.T0
	case logic.One:
		return gates.T1
	default:
		return gates.TX
	}
}

// runInterp evaluates one pass on the interpreted ternary settle and
// judges it.
func (a *auditor) runInterp(lib *cell.Library, p *tpass, out *batchOut) {
	fn := &a.fns[p.fn]
	u := &a.units[fn.unit]
	vals := make([]uint8, len(u.Netlist.NetNames))
	for i := range vals {
		vals[i] = gates.TX
	}
	if c := u.Netlist.Const0; c >= 0 {
		vals[c] = gates.T0
	}
	cube := a.assignment(p)
	for j, net := range u.vars {
		if net >= 0 {
			vals[net] = litTern(cube[j])
		}
	}
	if err := gates.SettleTernary(u.Netlist, lib, u.forced, vals); err != nil {
		out.diags = append(out.diags, Diag{
			Loc: a.loc(p), Severity: SevError, Code: "HZ000",
			Message: fmt.Sprintf("ternary evaluation failed: %v", err),
		})
		return
	}
	v, ok := gates.DriveTernary(u.Netlist, lib, u.drv, vals, fn.net)
	if !ok {
		return
	}
	a.judge(p, v, func() []int {
		return u.traceX(fn.net, func(n int) uint8 { return vals[n] })
	}, out)
	if d := u.interpDepth(vals, fn.net, v); int32(d) > out.depth[p.fn] {
		out.depth[p.fn] = int32(d)
	}
}

// interpDepth mirrors TernaryEval.DriverXDepth on settled values: the
// longest chain of X nets feeding the function's driver plus one when
// the driver output is X, and 0 when it is binary.
func (u *unitPlan) interpDepth(vals []uint8, net int, v uint8) int {
	di := u.drv[net]
	if di < 0 || v != gates.TX {
		return 0
	}
	xd := u.interpXD(vals)
	best := 0
	for _, in := range u.Netlist.Instances[di].Inputs {
		if vals[in] == gates.TX {
			best = max(best, int(xd[in]))
		}
	}
	return best + 1
}

// interpXD computes per-net X depths by fixed-point sweeps: an X net
// computed by a gate sits one above its deepest X input; sources and
// binary nets are depth 0. The forced cut makes the graph acyclic, so
// the sweep converges.
func (u *unitPlan) interpXD(vals []uint8) []uint8 {
	nl := u.Netlist
	xd := make([]uint8, len(nl.NetNames))
	limit := 4*len(nl.Instances) + 16
	for iter := 0; iter < limit; iter++ {
		changed := false
		for i := range nl.Instances {
			inst := &nl.Instances[i]
			out := inst.Output
			if u.forced[out] || u.drv[out] != i || vals[out] != gates.TX {
				continue
			}
			d := uint8(0)
			for _, in := range inst.Inputs {
				if vals[in] == gates.TX && xd[in] > d {
					d = xd[in]
				}
			}
			if d < 255 {
				d++
			}
			if xd[out] != d {
				xd[out] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return xd
}
