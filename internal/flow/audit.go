package flow

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/bmlint"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/designs"
	"balsabm/internal/diag"
	"balsabm/internal/hazver"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// AuditResult aggregates the repo's full six-checker stack over one
// design: chlint on the CH control netlist, bmlint on every compiled
// Burst-Mode specification (subsuming the old bm.Spec.Check row), a
// hazard-free re-verification of every synthesized cover
// (hfmin.CheckCover) per controller shape, the speed-split
// mapped-logic audit (techmap.CheckMapped), netlint on every mapped
// controller plus the merged circuit of each arm, and hazver — the
// static gate-level hazard verification of the netlists each arm
// ships, one per controller shape, by two-pass ternary evaluation.
type AuditResult struct {
	Design string
	// LintDiags are the chlint findings on the control netlist.
	LintDiags []analysis.Diag
	// Specs are the bmlint audits of each unique controller shape's
	// compiled Burst-Mode specification, in audit order.
	Specs []bmlint.Result
	// SpecsChecked counts controller shapes whose compiled Burst-Mode
	// specification carried no BM-error (the bm.Spec.Check
	// conditions, accumulated); CoversChecked counts two-level covers
	// re-verified hazard-free; MappedChecked counts speed-split
	// mapped controllers whose gate logic passed the
	// hazard-non-increasing mapping audit.
	SpecsChecked  int
	CoversChecked int
	MappedChecked int
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
	// Failures are hard checker failures: a spec, cover or mapping
	// audit that did not pass.
	Failures []string
}

func (a *AuditResult) fail(format string, args ...any) {
	a.Failures = append(a.Failures, fmt.Sprintf(format, args...))
}

// CheckerCount is one checker's tally in an audit: its error and
// warning findings and how many items it covered (specs, covers, mapped
// controllers, circuits, bursts — whichever the checker counts).
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
// "bmlint", "covers", "mapped", "netlint" and "hazver"; hazver counts
// verified bursts as checked.
func (a *AuditResult) Checkers() map[string]CheckerCount {
	lint := CheckerCount{Checked: 1}
	tally(&lint, a.LintDiags)
	bm := CheckerCount{Checked: a.SpecsChecked}
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
		"covers":  {Checked: a.CoversChecked},
		"mapped":  {Checked: a.MappedChecked},
		"netlint": nl,
		"hazver":  hz,
	}
}

// Errors counts everything that must fail an audit: checker failures
// and error-severity findings from any of the four linters.
func (a *AuditResult) Errors() int {
	n := len(a.Failures)
	for _, c := range a.Checkers() {
		n += c.Errors
	}
	return n
}

// Warnings counts warning-severity findings from the four linters.
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
// counts for the six-checker stack, e.g.
//
//	stack: audit OK: chlint 0e/0w; bmlint 0e/0w, 7 specs; 69 covers; 2 mapped; netlint 0e/60w, 18 circuits; hazver 0e/0w, 1224 bursts; 0 errors, 60 warnings
func (a *AuditResult) Summary() string {
	status := "OK"
	if !a.OK() {
		status = "FAIL"
	}
	c := a.Checkers()
	lint, bm, nl, hz := c["chlint"], c["bmlint"], c["netlint"], c["hazver"]
	return fmt.Sprintf("%s: audit %s: chlint %de/%dw; bmlint %de/%dw, %d specs; %d covers; %d mapped; netlint %de/%dw, %d circuits; hazver %de/%dw, %d bursts; %d errors, %d warnings",
		a.Design, status, lint.Errors, lint.Warnings, bm.Errors, bm.Warnings, bm.Checked,
		a.CoversChecked, a.MappedChecked, nl.Errors, nl.Warnings,
		nl.Checked, hz.Errors, hz.Warnings, hz.Checked, a.Errors(), a.Warnings())
}

// Details renders every failure and every error/warning finding,
// vet-style, one per line. Empty when the audit is fully clean of
// errors and warnings.
func (a *AuditResult) Details() string {
	var sb strings.Builder
	for _, f := range a.Failures {
		fmt.Fprintf(&sb, "%s: %s\n", a.Design, f)
	}
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

// AuditDesignCtx is AuditDesign with cancellation. It returns an error
// only for infrastructure failures (clustering or synthesis breaking,
// cancellation); checker verdicts — including hard checker failures —
// land in the result.
func AuditDesignCtx(ctx context.Context, d *designs.Design, opt *Options) (*AuditResult, error) {
	r := newRunner(ctx, opt)
	a := &AuditResult{Design: d.Name}

	start := time.Now()
	a.LintDiags = analysis.Analyze(d.Control())
	r.met.Timings.Observe("lint", time.Since(start))

	seenSpec := map[string]bool{}   // shapes spec/cover-checked
	seenMapped := map[string]bool{} // shapes mapping-audited
	for _, arm := range []string{"unopt", "opt"} {
		n, _, mode, err := r.prepare(d.Name, arm, d.Control())
		if err != nil {
			return nil, fmt.Errorf("clustering: %w", err)
		}
		for _, comp := range n.Components {
			if err := r.ctx.Err(); err != nil {
				return nil, err
			}
			if err := r.auditComponent(a, comp, mode, seenSpec, seenMapped); err != nil {
				return nil, err
			}
		}
		s, err := r.compileAndSynthesize(n, mode)
		if err != nil {
			return nil, fmt.Errorf("%s arm: %w", arm, err)
		}
		start = time.Now()
		for _, nl := range s.mapped {
			res := netlint.Audit(nl, r.opt.Lib)
			res.Name = d.Name + "." + arm + "." + nl.Name
			a.Circuits = append(a.Circuits, res)
		}
		a.Circuits = append(a.Circuits, NetlintMerged(d.Name, arm, s.mapped, r.opt.Lib))
		r.met.Timings.Observe("netlint", time.Since(start))
		a.Hazver = append(a.Hazver, r.hazverAudit(d.Name, arm, s.units))
	}
	return a, nil
}

// auditComponent runs the specification-level checkers on one
// controller shape: bm.Spec.Check on the compiled Burst-Mode spec, a
// hazard-free re-verification of every synthesized cover against its
// specified transitions, and — in speed-split arms — the mapped-logic
// hazard audit. Rename-isomorphic shapes (same ch.Canonicalize key)
// are checked once per checker.
func (r *runner) auditComponent(a *AuditResult, comp *ch.Program, mode techmap.Mode, seenSpec, seenMapped map[string]bool) error {
	key := "raw|" + comp.Name
	if canon, ok := ch.CanonicalizeProgram(comp); ok {
		key = canon.Key
	}
	needSpec := !seenSpec[key]
	needMapped := mode == techmap.SpeedSplit && !seenMapped[key]
	if !needSpec && !needMapped {
		return nil
	}
	seenSpec[key] = true
	if mode == techmap.SpeedSplit {
		seenMapped[key] = true
	}

	sp, err := chtobm.CompileLoose(comp)
	if err != nil {
		a.fail("%s: compile: %v", comp.Name, err)
		return nil
	}
	if needSpec {
		res := bmlint.Audit(sp)
		a.Specs = append(a.Specs, res)
		if bmlint.HasErrors(res.Diags) {
			// The BM-error diagnostics carry the verdict; synthesizing
			// an ill-formed spec would only cascade.
			return nil
		}
		a.SpecsChecked++
	}
	ctrl, err := minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: r.pool, Ctx: r.ctx})
	if err != nil {
		if r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		a.fail("%s: synthesis: %v", comp.Name, err)
		return nil
	}
	if needSpec {
		names := make([]string, 0, len(ctrl.Outputs))
		for name := range ctrl.Outputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := hfmin.CheckCover(ctrl.Outputs[name], ctrl.Transitions[name]); err != nil {
				a.fail("%s: cover %s: %v", comp.Name, name, err)
			} else {
				a.CoversChecked++
			}
		}
		for i, cv := range ctrl.NextState {
			name := fmt.Sprintf("y%d", i)
			if err := hfmin.CheckCover(cv, ctrl.Transitions[name]); err != nil {
				a.fail("%s: cover %s: %v", comp.Name, name, err)
			} else {
				a.CoversChecked++
			}
		}
	}
	if needMapped {
		nl, err := techmap.MapController(ctrl, techmap.SpeedSplit, r.opt.Lib)
		if err != nil {
			a.fail("%s: map: %v", comp.Name, err)
			return nil
		}
		if err := techmap.CheckMappedOpt(ctrl, nl, r.opt.Lib, techmap.CheckOptions{Pool: r.pool, Ctx: r.ctx}); err != nil {
			a.fail("%s: mapped-logic audit: %v", comp.Name, err)
		} else {
			a.MappedChecked++
		}
	}
	return nil
}
