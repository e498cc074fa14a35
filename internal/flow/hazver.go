package flow

import (
	"context"
	"strings"
	"time"

	"balsabm/internal/core"
	"balsabm/internal/hazver"
	"balsabm/internal/techmap"
)

// HazverError aborts a flow run: the static gate-level hazard
// verification found an error-severity diagnostic in one arm — a
// specified burst on which the mapped logic can glitch (HZ001/HZ002)
// or disagrees with its specification at a burst endpoint (HZ003), so
// the measured hardware would not be hazard-free.
type HazverError struct {
	Design string
	Arm    string // "unopt" or "opt"
	Diags  []hazver.Diag
}

func (e *HazverError) Error() string {
	var sb strings.Builder
	sb.WriteString("hazver: ")
	sb.WriteString(e.Circuit())
	sb.WriteString(": ")
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString("static hazard verification failed:")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Circuit names the verified circuit, e.g. "stack.opt".
func (e *HazverError) Circuit() string { return e.Design + "." + e.Arm }

// HazverFinding is one non-error hazard-verification finding surfaced
// by the post-mapping gate, tagged with the circuit it was found in.
type HazverFinding struct {
	Design string
	Arm    string
	Diag   hazver.Diag
}

// Circuit names the verified circuit, e.g. "stack.opt".
func (f HazverFinding) Circuit() string { return f.Design + "." + f.Arm }

// HazverNetlist statically verifies every controller of a control
// netlist for hazard freedom on its specified input bursts: the netlist
// is synthesized and mapped in the given mode, and the merged mapped
// logic of each distinct canonical shape's shipped netlist is checked
// by two-pass ternary evaluation (hazver.Audit). Hand-library circuits
// carry no burst provenance; they are counted as skipped and rest on
// simulation. Unlike the flow gate, error findings do not abort: the
// report is the product. Callers wanting the optimized arm cluster the
// netlist first (core.OptimizeOpt) and pass techmap.SpeedSplit.
func HazverNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.synthesizeNetlist(n, mode)
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
// *HazverError; warnings and the HZ200 static report land on the
// metrics sink (shown by -stats, streamed on the daemon's "lint" SSE
// stage) and never block. The full audit result is returned either way
// so callers can report it.
func (r *runner) hazverGate(design, arm string, units []hazver.Unit) (hazver.Result, error) {
	res := r.hazverAudit(design, arm, units)
	var errs []hazver.Diag
	for _, d := range res.Diags {
		if d.Severity == hazver.SevError {
			errs = append(errs, d)
		} else {
			r.met.recordHazver(HazverFinding{Design: design, Arm: arm, Diag: d})
		}
	}
	if len(errs) > 0 {
		return res, &HazverError{Design: design, Arm: arm, Diags: errs}
	}
	return res, nil
}

// HazverGate runs the post-mapping static hazard gate on its own: the
// netlist is synthesized in the given mode and its shipped netlists
// verified as the flow's gate does. Error findings abort as a
// *HazverError; warnings and the HZ200 report land on opt.Metrics and
// never block. Callers that also need the mapped netlists use
// SynthesizeCheckedCtx, which synthesizes once for every gate.
func HazverGate(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) (hazver.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.synthesizeNetlist(n, mode)
	if err != nil {
		return hazver.Result{}, err
	}
	return r.hazverGate(design, arm, s.units)
}
