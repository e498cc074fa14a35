package flow

import (
	"context"
	"strings"
	"time"

	"balsabm/internal/cell"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// NetlintError aborts a flow run: the merged gate-level circuit of one
// arm has error-severity netlint findings — it is miswired (multiple
// drivers, floating nets, an unbroken combinational loop, ...), so
// simulating it would measure broken hardware.
type NetlintError struct {
	Design string
	Arm    string // "unopt" or "opt"
	Diags  []netlint.Diag
}

func (e *NetlintError) Error() string {
	var sb strings.Builder
	sb.WriteString("netlint: ")
	sb.WriteString(e.Circuit())
	sb.WriteString(": ")
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString("merged circuit fails netlint:")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Circuit names the audited circuit, e.g. "stack.opt".
func (e *NetlintError) Circuit() string { return e.Design + "." + e.Arm }

// NetlintFinding is one non-error netlist finding surfaced by the
// post-merge gate, tagged with the circuit it was found in.
type NetlintFinding struct {
	Design string
	Arm    string
	Diag   netlint.Diag
}

// Circuit names the audited circuit, e.g. "stack.opt".
func (f NetlintFinding) Circuit() string { return f.Design + "." + f.Arm }

// NetlintMerged merges one arm's mapped controllers into a single
// circuit (gates.Merge — the same wiring the simulator builds) and
// audits it, returning diagnostics plus the static area/depth report.
func NetlintMerged(design, arm string, mapped []*gates.Netlist, lib *cell.Library) netlint.Result {
	return netlint.Audit(gates.Merge(design+"."+arm, mapped), lib)
}

// NetlintGate audits the merged circuit of an arm's mapped controllers
// the way the flow's post-merge gate does: error findings abort as a
// *NetlintError; warnings and the NL200 static report are recorded on
// the metrics sink (shown by -stats, streamed on the daemon's "lint"
// SSE stage) and never block. The full audit result is returned either
// way so callers can report it.
func NetlintGate(design, arm string, mapped []*gates.Netlist, lib *cell.Library, met *Metrics) (netlint.Result, error) {
	start := time.Now()
	res := NetlintMerged(design, arm, mapped, lib)
	if met != nil {
		met.Timings.Observe("netlint", time.Since(start))
	}
	var errs []netlint.Diag
	for _, d := range res.Diags {
		if d.Severity == netlint.SevError {
			errs = append(errs, d)
		} else if met != nil {
			met.recordNetlint(NetlintFinding{Design: design, Arm: arm, Diag: d})
		}
	}
	if len(errs) > 0 {
		return res, &NetlintError{Design: design, Arm: arm, Diags: errs}
	}
	return res, nil
}

// NetlintNetlist maps every component of a control netlist (no
// simulation, no benchmark) and audits each mapped controller plus the
// merged circuit, naming them "<design>.<arm>.<controller>" and
// "<design>.<arm>". Unlike the flow gate, error findings do not abort:
// the report is the product. Callers wanting the optimized arm cluster
// the netlist first (core.OptimizeOpt) and pass techmap.SpeedSplit.
func NetlintNetlist(ctx context.Context, design, arm string, n *core.Netlist, mode techmap.Mode, opt *Options) ([]netlint.Result, netlint.Result, error) {
	r := newRunner(ctx, opt)
	s, err := r.synthesizeNetlist(n, mode)
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
