package flow

import (
	"context"
	"fmt"
	"strings"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/bmlint"
	"balsabm/internal/designs"
	"balsabm/internal/diag"
	"balsabm/internal/hazver"
	"balsabm/internal/netlint"
)

// AuditResult aggregates the flow's four checker tiers over one
// design, on exactly the netlists the flow ships: chlint on the CH
// control netlist, then for each arm the bmlint gate on every compiled
// Burst-Mode specification, netlint on every mapped controller plus the
// arm's merged circuit, and the hazver gate, which statically verifies
// the shipped netlists hazard-free on their specified bursts by
// two-pass ternary evaluation. Each arm runs through the flow's own
// gated synthesis (checkedArm), so the audit synthesizes nothing the
// flow would not.
type AuditResult struct {
	Design string
	// LintDiags are the chlint findings on the control netlist.
	LintDiags []analysis.Diag
	// Specs are the bmlint gate's audits, one per component per arm,
	// named "<design>.<arm>.<component>".
	Specs []bmlint.Result
	// Circuits are the netlint audits, in audit order: each arm's
	// mapped controllers (named "<design>.<arm>.<controller>") followed
	// by the arm's merged circuit ("<design>.<arm>").
	Circuits []netlint.Result
	// Hazver are the static hazard-verification reports, one per arm
	// ("<design>.unopt" then "<design>.opt"): every distinct controller
	// shape's shipped logic proved glitch-free on its specified bursts
	// by two-pass ternary evaluation; hand-library circuits, which carry
	// no burst provenance, are counted as skipped.
	Hazver []hazver.Result
}

// CheckerCount is one checker's tally in an audit: its error and
// warning findings and how many items it covered (specs, circuits,
// bursts — whichever the checker counts).
type CheckerCount struct {
	Errors, Warnings, Checked int
}

// tally adds a diagnostic list's errors and warnings to c.
func tally[L diag.Loc](c *CheckerCount, ds []diag.Diag[L]) {
	e, w, _ := diag.Count(ds)
	c.Errors += e
	c.Warnings += w
}

// Checkers tallies every checker of the stack, keyed "chlint",
// "bmlint", "netlint" and "hazver"; hazver counts verified bursts as
// checked.
func (a *AuditResult) Checkers() map[string]CheckerCount {
	lint := CheckerCount{Checked: 1}
	tally(&lint, a.LintDiags)
	bm := CheckerCount{Checked: len(a.Specs)}
	for _, s := range a.Specs {
		tally(&bm, s.Diags)
	}
	nl := CheckerCount{Checked: len(a.Circuits)}
	for _, c := range a.Circuits {
		tally(&nl, c.Diags)
	}
	var hz CheckerCount
	for _, h := range a.Hazver {
		tally(&hz, h.Diags)
		hz.Checked += h.Stats.Bursts
	}
	return map[string]CheckerCount{
		"chlint":  lint,
		"bmlint":  bm,
		"netlint": nl,
		"hazver":  hz,
	}
}

// Errors counts the error-severity findings of the four checkers.
func (a *AuditResult) Errors() int {
	n := 0
	for _, c := range a.Checkers() {
		n += c.Errors
	}
	return n
}

// Warnings counts the warning-severity findings of the four checkers.
func (a *AuditResult) Warnings() int {
	n := 0
	for _, c := range a.Checkers() {
		n += c.Warnings
	}
	return n
}

// OK reports whether the whole stack passed with no errors.
func (a *AuditResult) OK() bool { return a.Errors() == 0 }

// Summary renders the audit as one line with per-checker diagnostic
// counts, e.g.
//
//	stack: audit OK: chlint 0e/0w; bmlint 0e/0w, 16 specs; netlint 0e/60w, 18 circuits; hazver 0e/0w, 1224 bursts; 0 errors, 60 warnings
func (a *AuditResult) Summary() string {
	status := "OK"
	if !a.OK() {
		status = "FAIL"
	}
	c := a.Checkers()
	lint, bm, nl, hz := c["chlint"], c["bmlint"], c["netlint"], c["hazver"]
	return fmt.Sprintf("%s: audit %s: chlint %de/%dw; bmlint %de/%dw, %d specs; netlint %de/%dw, %d circuits; hazver %de/%dw, %d bursts; %d errors, %d warnings",
		a.Design, status, lint.Errors, lint.Warnings, bm.Errors, bm.Warnings, bm.Checked,
		nl.Errors, nl.Warnings, nl.Checked, hz.Errors, hz.Warnings, hz.Checked, a.Errors(), a.Warnings())
}

// Details renders every error and warning finding, vet-style, one per
// line. Empty when the audit is fully clean of errors and warnings.
func (a *AuditResult) Details() string {
	var sb strings.Builder
	writeFindings(&sb, "", a.LintDiags)
	for _, s := range a.Specs {
		writeFindings(&sb, s.Name, s.Diags)
	}
	for _, c := range a.Circuits {
		writeFindings(&sb, c.Name, c.Diags)
	}
	for _, h := range a.Hazver {
		writeFindings(&sb, h.Name, h.Diags)
	}
	return sb.String()
}

// writeFindings writes one unit's error and warning diagnostics,
// vet-style, one per line.
func writeFindings[L diag.Loc](sb *strings.Builder, unit string, ds []diag.Diag[L]) {
	for _, d := range ds {
		if d.Severity != diag.SevInfo {
			sb.WriteString(d.Render(unit))
			sb.WriteString("\n")
		}
	}
}

// AuditDesign runs the full audit stack on one design.
func AuditDesign(d *designs.Design, opt *Options) (*AuditResult, error) {
	return AuditDesignCtx(context.Background(), d, opt)
}

// AuditDesignCtx is AuditDesign with cancellation. Each arm runs the
// flow's own preparation and gated synthesis, so the audit checks the
// netlists the flow ships. A gate error ends its arm, whose findings
// are already in the result. AuditDesignCtx returns an error only for
// infrastructure failures (clustering, compilation or synthesis
// breaking, cancellation).
func AuditDesignCtx(ctx context.Context, d *designs.Design, opt *Options) (*AuditResult, error) {
	r := newRunner(ctx, opt)
	a := &AuditResult{Design: d.Name}

	start := time.Now()
	a.LintDiags = analysis.Analyze(d.Control())
	r.met.Timings.Observe("lint", time.Since(start))

	for _, arm := range []string{"unopt", "opt"} {
		n, _, mode, err := r.prepare(d.Name, arm, d.Control())
		if err != nil {
			return nil, fmt.Errorf("clustering: %w", err)
		}
		c, err := r.checkedArm(d.Name, arm, n, mode)
		if c == nil {
			return nil, fmt.Errorf("%s arm: %w", arm, err)
		}
		unit := d.Name + "." + arm + "."
		for _, s := range c.Bmlint {
			s.Name = unit + s.Name
			a.Specs = append(a.Specs, s)
		}
		if c.Mapped == nil {
			continue // the bmlint gate failed
		}
		start = time.Now()
		a.Circuits = append(a.Circuits, NetlintControllers(d.Name, arm, c.Mapped, r.opt.Lib)...)
		r.met.Timings.Observe("netlint", time.Since(start))
		a.Circuits = append(a.Circuits, c.Netlint)
		if c.Hazver.Name != "" { // the netlint gate passed
			a.Hazver = append(a.Hazver, c.Hazver)
		}
	}
	return a, nil
}
