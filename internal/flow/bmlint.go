package flow

import (
	"fmt"
	"time"

	"balsabm/internal/bmlint"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
)

// BmlintNetlist compiles every component of a control netlist to its
// Burst-Mode specification (chtobm.CompileLoose, so even specs the
// final Check would reject reach the analyzer) and audits each,
// returning one result per component in netlist order. Unlike the
// flow gate, error findings do not abort: the report is the product.
func BmlintNetlist(n *core.Netlist) ([]bmlint.Result, error) {
	results := make([]bmlint.Result, 0, len(n.Components))
	for _, p := range n.Components {
		sp, err := chtobm.CompileLoose(p)
		if err != nil {
			return nil, fmt.Errorf("bmlint: %s: %w", p.Name, err)
		}
		results = append(results, bmlint.Audit(sp))
	}
	return results, nil
}

// BmlintGate audits every compiled spec of an arm's control netlist
// the way the flow's post-compile gate does: error findings abort as
// a *GateError for the first failing component; warnings and the
// BM200 complexity report are recorded on the metrics sink (shown by
// -stats, streamed on the daemon's "lint" SSE stage) and never block.
// The per-component audit results are returned either way so callers
// can report them.
func BmlintGate(design, arm string, n *core.Netlist, met *Metrics) ([]bmlint.Result, error) {
	start := time.Now()
	results, err := BmlintNetlist(n)
	if met != nil {
		met.Timings.Observe("bmlint", time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	return results, splitSpecs(design, arm, results, met)
}

// splitSpecs runs the gate split over each spec's audit in netlist
// order: every spec's non-error findings are recorded, and the first
// failing spec's error findings come back as the gate error.
func splitSpecs(design, arm string, results []bmlint.Result, met *Metrics) error {
	var first error
	for _, res := range results {
		if err := split(met, TierBmlint, Site{Design: design, Arm: arm, Spec: res.Name}, res.Diags); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// bmlintGate is the post-compile gate of checkedArm: before an arm's
// components are synthesized, every compiled spec is audited.
// It runs sequentially over the netlist (the specs are cheap to
// compile), so recorded findings are in deterministic netlist order
// at any worker count.
func (r *runner) bmlintGate(design, arm string, n *core.Netlist) error {
	_, err := BmlintGate(design, arm, n, r.met)
	return err
}
