package flow

import (
	"context"
	"time"

	"balsabm/internal/core"
	"balsabm/internal/hazver"
	"balsabm/internal/techmap"
)

// hazverGate is the post-mapping gate of checkedArm: after an arm's
// controllers are mapped and the merged circuit passes netlint, the
// netlists the synthesis shipped — one unit per distinct controller
// shape — are statically verified hazard-free on their specified
// bursts. Error findings abort the arm as a *GateError; warnings and
// the HZ200 static report land on the metrics sink (shown by -stats,
// streamed on the daemon's "lint" SSE stage) and never block. The full
// audit result is returned either way so callers can report it. When
// the run's context ends during the audit, some passes never ran: the
// gate returns the context's error and no report.
func (r *runner) hazverGate(design, arm string, units []hazver.Unit) (hazver.Result, error) {
	start := time.Now()
	res := hazver.Audit(design+"."+arm, units, r.opt.Lib, hazver.Options{Pool: r.pool, Ctx: r.ctx})
	r.met.Timings.Observe("hazver", time.Since(start))
	if err := r.ctx.Err(); err != nil {
		return hazver.Result{}, err
	}
	return res, split(r.met, TierHazver, Site{Design: design, Arm: arm}, res.Diags)
}

// HazverGate returns the hazver tier of the checked arm of n, already
// readied for mode (clustered for SpeedSplit): the bmlint gate,
// synthesis, the netlint gate and the hazver gate run as in the flow.
// A gate's error findings abort as a *GateError — the bmlint or netlint
// gate's ahead of hazver's; warnings and the reports land on
// opt.Metrics and never block. Callers that also need the mapped
// netlists use SynthesizeCheckedCtx.
func HazverGate(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	c, err := newRunner(ctx, opt).checkedArm(design, arm, n, mode)
	if c == nil {
		return hazver.Result{}, err
	}
	return c.Hazver, err
}
