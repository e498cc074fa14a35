package flow

import (
	"time"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
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

// NetlintControllers audits each of an arm's mapped controllers on its
// own, in component order, naming each "<design>.<arm>.<controller>".
// With the arm's merged circuit (CheckedArm.Netlint) these are the rows
// the netlint checker and the audit report; the flow gates on the
// merged circuit alone.
func NetlintControllers(design, arm string, mapped []*gates.Netlist, lib *cell.Library) []netlint.Result {
	out := make([]netlint.Result, len(mapped))
	for i, nl := range mapped {
		out[i] = netlint.Audit(nl, lib)
		out[i].Name = design + "." + arm + "." + nl.Name
	}
	return out
}
