package flow

import (
	"context"
	"time"

	"balsabm/internal/core"
	"balsabm/internal/hazver"
	"balsabm/internal/techmap"
)

// HazverNetlist statically verifies every controller of a control
// netlist for hazard freedom on its specified input bursts: the netlist
// is synthesized and mapped in the given mode, and the merged mapped
// logic of each distinct canonical shape's shipped netlist is checked
// by two-pass ternary evaluation (hazver.Audit). Hand-library circuits
// carry no burst provenance; they are counted as skipped and rest on
// simulation. Unlike the flow gate, error findings do not abort: the
// report is the product. Callers wanting the optimized arm cluster the
// netlist first (PrepareArm) and pass techmap.SpeedSplit.
func HazverNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.compileAndSynthesize(n, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	return r.hazverAudit(design, arm, s.units), nil
}

// hazverAudit verifies an arm's units, one per distinct controller
// shape as synthesizeNetlist shipped them, and times the audit.
func (r *runner) hazverAudit(design, arm string, units []hazver.Unit) hazver.Result {
	start := time.Now()
	res := hazver.Audit(design+"."+arm, units, r.opt.Lib, hazver.Options{Pool: r.pool, Ctx: r.ctx})
	r.met.Timings.Observe("hazver", time.Since(start))
	return res
}

// hazverGate is the post-mapping gate of checkedArm: after an arm's
// controllers are mapped and the merged circuit passes netlint, the
// netlists the synthesis shipped are statically verified hazard-free
// on their specified bursts. Error findings abort the arm as a
// *GateError; warnings and the HZ200 static report land on the
// metrics sink (shown by -stats, streamed on the daemon's "lint" SSE
// stage) and never block. The full audit result is returned either way
// so callers can report it.
func (r *runner) hazverGate(design, arm string, units []hazver.Unit) (hazver.Result, error) {
	res := r.hazverAudit(design, arm, units)
	return res, split(r.met, TierHazver, Site{Design: design, Arm: arm}, res.Diags)
}

// HazverGate runs the post-mapping static hazard gate on its own: the
// netlist is synthesized in the given mode and its shipped netlists
// verified as the flow's gate does. Error findings abort as a
// *GateError; warnings and the HZ200 report land on opt.Metrics and
// never block. Callers that also need the mapped netlists use
// SynthesizeCheckedCtx, which synthesizes once for every gate.
func HazverGate(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.compileAndSynthesize(n, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	return r.hazverGate(design, arm, s.units)
}
