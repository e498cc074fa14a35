// Package bmlint implements a pass-based static analyzer for
// Burst-Mode machine specifications — the middle tier of the lint
// stack, between chlint (internal/analysis, CH programs) and netlint
// (internal/netlint, mapped netlists).
//
// The burst-mode machine is the paper's central IR: chtobm compiles CH
// into it, hfmin minimizes its next-state and output functions, and
// everything downstream trusts its well-formedness. Until now that
// trust rested on bm.Check, which stops at the first violation and
// reports a bare error. bmlint reports *every* finding as a Diag with
// a stable BMxxx code, at three tiers:
//
//   - BM-errors subsume bm.Check (which is now a thin wrapper over the
//     shared bm.Violations core, so the two can never disagree):
//     duplicate or conflicting signal declarations, empty input
//     bursts, signal-role confusion, duplicate signals in a burst,
//     maximal-set violations, polarity inconsistency, inconsistent
//     entry values, unreachable states, terminal states.
//   - BM-warnings cover semantics Check never sees: non-unique entry
//     points (parallel entry arcs), mergeable sibling arcs, redundant
//     states suggesting state minimization, outputs never toggled,
//     inputs never sampled.
//   - BM200 is a static complexity report — states, arcs, burst
//     widths, and the estimated dhf-prime enumeration pressure of the
//     widest output against hfmin.EnumBudget — the spec-level
//     complement of netlint's NL200 area/depth report.
//
// Every finding is a diag.Diag located at a state, an arc, a signal,
// or the whole spec; rendering and sorting follow the shared
// internal/diag conventions, so the CLI, the daemon and the golden
// corpus agree byte-for-byte with the other two linters' formats.
//
// Entry points: Analyze (diagnostics only), Audit (diagnostics plus
// the static report), LintSource (.bms text, folding parse failures
// into the diagnostic stream), and Passes (the registry).
package bmlint

import (
	"fmt"
	"strings"

	"balsabm/internal/bm"
	"balsabm/internal/diag"
)

// Severity classifies a diagnostic; see internal/diag.
type Severity = diag.Severity

// Severity levels, re-exported from internal/diag. Errors mark
// ill-formed specs the minimizer must not see; they abort the flow's
// post-compile gate. Warnings mark legal-but-suspicious structure.
// Infos are advisory, e.g. the complexity report.
const (
	SevError   = diag.SevError
	SevWarning = diag.SevWarning
	SevInfo    = diag.SevInfo
)

// Loc pins a diagnostic to a place in the spec: a state, an arc (with
// its source state, so arc findings sort next to their state's), a
// signal, or nothing (spec-level findings).
type Loc struct {
	State   int    // state id, -1 when not state-specific
	Arc     int    // index into Spec.Arcs, -1 when not arc-specific
	ArcText string // Arc.String() when Arc >= 0
	Sig     string // signal name when signal-specific
}

// NoLoc is the spec-level location.
var NoLoc = Loc{State: -1, Arc: -1}

// StateLoc locates a finding at state s.
func StateLoc(s int) Loc { return Loc{State: s, Arc: -1} }

// SigLoc locates a finding at a named signal.
func SigLoc(sig string) Loc { return Loc{State: -1, Arc: -1, Sig: sig} }

// ArcLoc locates a finding at arc index i of sp, carrying the arc's
// source state so the finding groups with that state's.
func ArcLoc(sp *bm.Spec, i int) Loc {
	return Loc{State: sp.Arcs[i].From, Arc: i, ArcText: sp.Arcs[i].String()}
}

// String renders the location: `state 2`, `arc 3 (1 -> 0 : a- / y-)`,
// `signal "req"`. Spec-level locations render empty.
func (l Loc) String() string {
	var parts []string
	if l.Arc >= 0 {
		parts = append(parts, fmt.Sprintf("arc %d (%s)", l.Arc, l.ArcText))
	} else if l.State >= 0 {
		parts = append(parts, fmt.Sprintf("state %d", l.State))
	}
	if l.Sig != "" {
		parts = append(parts, fmt.Sprintf("signal %q", l.Sig))
	}
	return strings.Join(parts, " ")
}

// Fragment implements diag.Loc: spec locations are space-separated
// from the spec-name prefix ("stack: arc 2 (...):").
func (l Loc) Fragment() (string, bool) { return l.String(), false }

// Key implements diag.Loc: diagnostics sort by state, then arc index.
func (l Loc) Key() (int, int) { return l.State, l.Arc }

// Diag is one diagnostic: where (a state/arc/signal Loc), how bad,
// which rule, and why. It is the shared diag.Diag shape instantiated
// with spec locations; see internal/diag for the render and sort
// conventions.
type Diag = diag.Diag[Loc]

// Codes maps every stable diagnostic code to its one-line meaning.
// Codes are append-only: a released code never changes meaning, so
// suppressions, CI greps and the /metrics code labels stay valid.
var Codes = map[string]string{
	"BM000": "spec does not parse",
	"BM001": "arc has an empty input burst",
	"BM002": "signal-role confusion: input used as output or vice versa",
	"BM003": "signal appears twice in one burst",
	"BM004": "maximal-set violation: comparable input bursts leave one state",
	"BM005": "polarity violation: transition to a value the signal already holds",
	"BM006": "state entered with inconsistent signal values",
	"BM007": "state unreachable from the start state",
	"BM008": "terminal state: no outgoing arcs",
	"BM009": "start state out of range",
	"BM010": "signal declared twice, or as both input and output",
	"BM100": "parallel entry arcs with differing output bursts (entry point not unique)",
	"BM101": "mergeable sibling arcs: same source, target and output burst",
	"BM102": "redundant state: outgoing behavior identical to another state",
	"BM103": "output never toggled by any arc",
	"BM104": "input never sampled by any input burst",
	"BM200": "static complexity report",
}

// violationCode maps the shared bm.Violation kinds onto BM-error
// codes, one-to-one.
var violationCode = map[bm.Kind]string{
	bm.KindEmptyInput:  "BM001",
	bm.KindRole:        "BM002",
	bm.KindDuplicate:   "BM003",
	bm.KindMaximalSet:  "BM004",
	bm.KindPolarity:    "BM005",
	bm.KindEntryValues: "BM006",
	bm.KindUnreachable: "BM007",
	bm.KindTerminal:    "BM008",
	bm.KindStart:       "BM009",
	bm.KindDeclaration: "BM010",
}

// Reporter collects diagnostics during a pass run.
type Reporter = diag.Reporter[Loc]

// Pass is one analyzer pass: a name, a one-line doc string and a run
// function receiving the spec under analysis.
type Pass struct {
	Name string
	Doc  string
	Run  func(sp *bm.Spec, r *Reporter)
}

// Passes returns the full pass registry in its fixed run order. Every
// pass is safe on arbitrary (even ill-formed) specs, so unlike
// netlint there is no early bail-out; findings on a broken spec are
// best-effort.
func Passes() []*Pass {
	return []*Pass{
		WellFormedPass,
		EntryPass,
		SiblingPass,
		RedundantPass,
		SignalsPass,
		ReportPass,
	}
}

// Run executes the given passes over a spec and returns the merged
// diagnostics in a stable order: state, then arc, then code, then
// message — byte-deterministic at any pass count.
func Run(sp *bm.Spec, passes []*Pass) []Diag {
	r := &Reporter{}
	for _, p := range passes {
		p.Run(sp, r)
	}
	ds := r.Diags()
	diag.Sort(ds)
	return ds
}

// Analyze runs every registered pass over a spec.
func Analyze(sp *bm.Spec) []Diag { return Run(sp, Passes()) }

// Result is one full audit: the spec's name, its diagnostics, and the
// static complexity report.
type Result struct {
	Name  string
	Diags []Diag
	Stats Stats
}

// Audit runs every pass and computes the static report. Stats are
// computed even when diagnostics are present — a broken spec still
// has a meaningful state/arc count.
func Audit(sp *bm.Spec) Result {
	return Result{Name: sp.Name, Diags: Analyze(sp), Stats: ComputeStats(sp)}
}

// LintSource lints .bms spec text. Parse failures do not abort the
// lint; they surface as a single BM000 error diagnostic, so every
// caller — CLI, daemon, golden tests — sees one uniform stream.
func LintSource(src string) Result {
	sp, err := bm.Parse(src)
	if err != nil {
		return Result{Diags: []Diag{{
			Loc: NoLoc, Severity: SevError, Code: "BM000", Message: err.Error(),
		}}}
	}
	return Audit(sp)
}

// Count tallies diagnostics by severity.
func Count(ds []Diag) (errors, warnings, infos int) { return diag.Count(ds) }

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(ds []Diag) bool { return diag.HasErrors(ds) }

// Format renders diagnostics vet-style, one per line (plus note
// lines), prefixed with the spec name when non-empty.
func Format(ds []Diag, spec string) string { return diag.Format(ds, spec) }
