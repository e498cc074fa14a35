package flow

import (
	"context"
	"time"

	"balsabm/internal/cell"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// NetlintMerged merges one arm's mapped controllers into a single
// circuit (gates.Merge — the same wiring the simulator builds) and
// audits it, returning diagnostics plus the static area/depth report.
func NetlintMerged(design, arm string, mapped []*gates.Netlist, lib *cell.Library) netlint.Result {
	return netlint.Audit(gates.Merge(design+"."+arm, mapped), lib)
}

// NetlintGate audits the merged circuit of an arm's mapped controllers
// the way the flow's post-merge gate does: error findings abort as a
// *GateError; warnings and the NL200 static report are recorded on the
// metrics sink (shown by -stats, streamed on the daemon's "lint" SSE
// stage) and never block. The full audit result is returned either way
// so callers can report it.
func NetlintGate(design, arm string, mapped []*gates.Netlist, lib *cell.Library, met *Metrics) (netlint.Result, error) {
	start := time.Now()
	res := NetlintMerged(design, arm, mapped, lib)
	if met != nil {
		met.Timings.Observe("netlint", time.Since(start))
	}
	return res, split(met, TierNetlint, Site{Design: design, Arm: arm}, res.Diags)
}

// NetlintNetlist maps every component of a control netlist (no
// simulation, no benchmark) and audits each mapped controller plus the
// merged circuit, naming them "<design>.<arm>.<controller>" and
// "<design>.<arm>". Unlike the flow gate, error findings do not abort:
// the report is the product. Callers wanting the optimized arm cluster
// the netlist first (PrepareArm) and pass techmap.SpeedSplit.
func NetlintNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) ([]netlint.Result, netlint.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.compileAndSynthesize(n, mode)
	if err != nil {
		return nil, netlint.Result{}, err
	}
	mapped := s.mapped
	start := time.Now()
	ctrls := make([]netlint.Result, 0, len(mapped))
	for _, nl := range mapped {
		res := netlint.Audit(nl, r.opt.Lib)
		res.Name = design + "." + arm + "." + nl.Name
		ctrls = append(ctrls, res)
	}
	merged := NetlintMerged(design, arm, mapped, r.opt.Lib)
	r.met.Timings.Observe("netlint", time.Since(start))
	return ctrls, merged, nil
}
