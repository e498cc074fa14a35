package flow

import (
	"fmt"
	"strings"
	"time"

	"balsabm/internal/bmlint"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
)

// BmlintError aborts a flow run: a compiled Burst-Mode specification
// of one arm has error-severity bmlint findings — it is ill-formed
// (maximal-set or polarity violations, unreachable states, ...), so
// handing it to the minimizer would synthesize broken hardware.
type BmlintError struct {
	Design string
	Arm    string // "unopt" or "opt"
	Spec   string // the component whose spec failed
	Diags  []bmlint.Diag
}

func (e *BmlintError) Error() string {
	var sb strings.Builder
	sb.WriteString("bmlint: ")
	sb.WriteString(e.Unit())
	sb.WriteString(": ")
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString("compiled spec fails bmlint:")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Unit names the audited spec, e.g. "stack.opt.push_seq1".
func (e *BmlintError) Unit() string { return e.Design + "." + e.Arm + "." + e.Spec }

// BmlintFinding is one non-error spec finding surfaced by the
// post-compile gate, tagged with the arm and component it was found
// in.
type BmlintFinding struct {
	Design string
	Arm    string
	Spec   string
	Diag   bmlint.Diag
}

// Unit names the audited spec, e.g. "stack.opt.push_seq1".
func (f BmlintFinding) Unit() string { return f.Design + "." + f.Arm + "." + f.Spec }

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
// a *BmlintError for the first failing component; warnings and the
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
	if err := bmlintClassify(design, arm, results, met); err != nil {
		return results, err
	}
	return results, nil
}

// bmlintClassify splits audit results the gate's way: non-error
// findings are recorded on the metrics sink, error findings abort as a
// *BmlintError for the first failing spec.
func bmlintClassify(design, arm string, results []bmlint.Result, met *Metrics) error {
	var firstErr *BmlintError
	for _, res := range results {
		var errs []bmlint.Diag
		for _, d := range res.Diags {
			if d.Severity == bmlint.SevError {
				errs = append(errs, d)
			} else if met != nil {
				met.recordBmlint(BmlintFinding{Design: design, Arm: arm, Spec: res.Name, Diag: d})
			}
		}
		if len(errs) > 0 && firstErr == nil {
			firstErr = &BmlintError{Design: design, Arm: arm, Spec: res.Name, Diags: errs}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return nil
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
