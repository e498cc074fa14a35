package flow

import (
	"fmt"
	"strings"
	"time"

	"balsabm/internal/analysis"
	"balsabm/internal/core"
	"balsabm/internal/diag"
)

// The checker tiers a flow run gates through, in gate order: chlint on
// the control netlist, bmlint on every compiled Burst-Mode spec of an
// arm, netlint on the arm's merged circuit and hazver on the netlists
// it ships.
const (
	TierLint    = "lint"
	TierBmlint  = "bmlint"
	TierNetlint = "netlint"
	TierHazver  = "hazver"
)

// tiers lists the checker tiers in gate order.
var tiers = []string{TierLint, TierBmlint, TierNetlint, TierHazver}

// gateFailure heads the text of a GateError carrying several findings.
var gateFailure = map[string]string{
	TierLint:    "control netlist fails lint",
	TierBmlint:  "compiled spec fails bmlint",
	TierNetlint: "merged circuit fails netlint",
	TierHazver:  "static hazard verification failed",
}

// Site names what a checker gate checked.
type Site struct {
	Design string
	Arm    string // "unopt" or "opt"; empty at the lint gate
	Spec   string // the component whose spec was checked; bmlint only
}

// Unit renders the site the way diagnostics are prefixed with it:
// "stack" (lint), "stack.opt" (netlint, hazver) or
// "stack.opt.push_seq1" (bmlint).
func (s Site) Unit() string {
	u := s.Design
	if s.Arm != "" {
		u += "." + s.Arm
	}
	if s.Spec != "" {
		u += "." + s.Spec
	}
	return u
}

// Finding is one diagnostic a checker gate surfaced, tagged with its
// tier and site. Diag is the tier's own diagnostic (an analysis,
// bmlint, netlint or hazver Diag), kept unrendered until printed; Code
// is its code, for consumers that treat every tier alike.
type Finding struct {
	Tier string
	Site
	Code string
	Diag fmt.Stringer
}

func finding[L diag.Loc](tier string, at Site, d diag.Diag[L]) Finding {
	return Finding{Tier: tier, Site: at, Code: d.Code, Diag: d}
}

// GateError aborts a flow run: a checker gate found error-severity
// diagnostics, so the next stage would consume a broken artifact — a
// control netlist synthesis cannot handle (lint), an ill-formed
// Burst-Mode spec (bmlint), a miswired merged circuit (netlint), or
// shipped logic that can glitch on a specified burst (hazver). Diags
// holds the error findings only.
type GateError[L diag.Loc] struct {
	Tier string
	Site
	Diags []diag.Diag[L]
}

func (e *GateError[L]) Error() string {
	var sb strings.Builder
	sb.WriteString(e.Tier)
	sb.WriteString(": ")
	sb.WriteString(e.Unit())
	sb.WriteString(": ")
	if len(e.Diags) == 1 {
		sb.WriteString(e.Diags[0].String())
	} else {
		sb.WriteString(gateFailure[e.Tier])
		sb.WriteString(":")
		for _, d := range e.Diags {
			sb.WriteString("\n\t")
			sb.WriteString(d.String())
		}
	}
	return sb.String()
}

// Findings returns the error findings as Findings, the form consumers
// that treat every tier alike (the daemon's per-code counters) read.
func (e *GateError[L]) Findings() []Finding {
	out := make([]Finding, len(e.Diags))
	for i, d := range e.Diags {
		out[i] = finding(e.Tier, e.Site, d)
	}
	return out
}

// split is the severity split every checker gate shares: non-error
// diagnostics are recorded on met in order (dropped when met is nil),
// error diagnostics come back as a *GateError — a nil error when there
// are none.
func split[L diag.Loc](met *Metrics, tier string, at Site, ds []diag.Diag[L]) error {
	var errs []diag.Diag[L]
	for _, d := range ds {
		if d.Severity == diag.SevError {
			errs = append(errs, d)
		} else if met != nil {
			met.record(finding(tier, at, d))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return &GateError[L]{Tier: tier, Site: at, Diags: errs}
}

// LintNetlist is the pre-synthesis gate: it runs every analyzer pass
// over the control netlist before any synthesis work starts. Error
// findings abort the run as a *GateError; warnings and advisories are
// recorded on the metrics sink (shown by -stats, streamed by the
// daemon's SSE brokers) and never block.
func LintNetlist(n *core.Netlist, design string, met *Metrics) error {
	start := time.Now()
	diags := analysis.Analyze(n)
	if met != nil {
		met.Timings.Observe("lint", time.Since(start))
	}
	return split(met, TierLint, Site{Design: design}, diags)
}
