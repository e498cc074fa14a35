package flow

import (
	"time"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
)

// NetlintGate merges an arm's mapped controllers into one circuit
// (gates.Merge) and gates it as the flow's post-merge gate does:
// error findings abort as a *GateError; warnings and the NL200 static
// report are recorded on the metrics sink (shown by -stats, streamed
// on the daemon's "lint" SSE stage) and never block. The full audit
// result is returned either way so callers can report it. The flow
// itself merges once per arm in checkedArm and gates that circuit.
func NetlintGate(design, arm string, mapped []*gates.Netlist, lib *cell.Library, met *Metrics) (netlint.Result, error) {
	start := time.Now()
	return netlintGate(design, arm, gates.Merge(design+"."+arm, mapped), lib, met, start)
}

// netlintGate audits an arm's merged circuit and splits the findings
// by severity, charging the "netlint" stage the time since start (the
// caller's merge included).
func netlintGate(design, arm string, merged *gates.Netlist, lib *cell.Library, met *Metrics, start time.Time) (netlint.Result, error) {
	res := netlint.Audit(merged, lib)
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
