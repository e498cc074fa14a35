package flow

import (
	"context"
	"time"

	"balsabm/internal/bm"
	"balsabm/internal/bmlint"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
)

// BmlintNetlist readies a control netlist for one arm the way the flow
// does (the opt arm clusters it), compiles every component to its
// Burst-Mode specification (chtobm.CompileLoose, so even specs the
// final Check would reject reach the analyzer) and audits each,
// returning one result per component in netlist order; a component
// that does not compile gets a BM011 finding. It synthesizes
// nothing. Unlike the flow gate, error findings do not abort: the
// report is the product.
func BmlintNetlist(ctx context.Context, arm string, n *core.Netlist, opt *Options) ([]bmlint.Result, error) {
	r := newRunner(ctx, opt)
	n, _, _, err := r.prepare("", arm, n)
	if err != nil {
		return nil, err
	}
	_, results := r.bmlintSpecs(n)
	return results, nil
}

// bmlintSpecs compiles and audits every component of n, returning the
// specs and their audits in netlist order. A component that does not
// compile has no spec (nil) and a BM011 audit (bmlint.CompileFailure),
// so the gate fails it with a code. Each compile is observed as a
// "compile" stage run, and the audits together as one "bmlint" run.
func (r *runner) bmlintSpecs(n *core.Netlist) ([]*bm.Spec, []bmlint.Result) {
	specs := make([]*bm.Spec, len(n.Components))
	results := make([]bmlint.Result, len(n.Components))
	for i, p := range n.Components {
		start := time.Now()
		sp, err := chtobm.CompileLoose(p)
		r.met.Timings.Observe("compile", time.Since(start))
		if err != nil {
			results[i] = bmlint.CompileFailure(p.Name, err)
		}
		specs[i] = sp
	}
	start := time.Now()
	for i, sp := range specs {
		if sp != nil {
			results[i] = bmlint.Audit(sp)
		}
	}
	r.met.Timings.Observe("bmlint", time.Since(start))
	return specs, results
}

// BmlintGate audits every compiled spec of an arm's control netlist
// the way the flow's post-compile gate does: error findings abort as
// a *GateError for the first failing component; warnings and the
// BM200 complexity report are recorded on the metrics sink (shown by
// -stats, streamed on the daemon's "lint" SSE stage) and never block.
// The per-component audit results are returned either way so callers
// can report them.
func BmlintGate(design, arm string, n *core.Netlist, met *Metrics) ([]bmlint.Result, error) {
	_, results, err := newRunner(nil, &Options{Metrics: met}).bmlintGate(design, arm, n)
	return results, err
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

// bmlintGate is the post-compile gate of checkedArm: every component
// compiles once and every spec is audited (bmlintSpecs). It runs
// sequentially over the netlist (the specs are cheap to compile), so
// recorded findings are in deterministic netlist order at any worker
// count. It returns the specs and their audits in netlist order, the
// audits also on a gate error; a component that does not compile
// fails the gate with BM011. A spec that passes the gate is the one
// chtobm.Compile would return: Compile is CompileLoose plus a
// read-only Check, and every Check violation is a bmlint error
// (bmlint.WellFormedPass). So synthesis takes the gate's specs and
// compiles nothing itself.
func (r *runner) bmlintGate(design, arm string, n *core.Netlist) ([]*bm.Spec, []bmlint.Result, error) {
	specs, results := r.bmlintSpecs(n)
	return specs, results, splitSpecs(design, arm, results, r.met)
}
