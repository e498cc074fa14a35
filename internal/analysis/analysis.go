// Package analysis implements chlint, a pass-based static analyzer
// for CH programs with structured, position-rich diagnostics.
//
// The paper's core guarantee (Section 3.5) is that CH programs obeying
// the Table 1 "Burst-Mode aware" restrictions compile
// correct-by-construction into valid Burst-Mode specifications.
// ch.Validate enforces that, but stops at the first violation and
// reports a bare error. chlint instead runs a fixed set of passes over
// a whole control netlist and reports every finding as a Diag: a
// source position (threaded from the parser through the AST), a
// severity, a stable CHxxx code, a message and optional notes — the
// shape of a compiler diagnostic, in the spirit of Rosendahl &
// Kirkeby's static communication analysis for hardware design.
//
// Severities follow go vet conventions: errors mean the netlist will
// not synthesize (or will synthesize to broken hardware) and gate the
// flow; warnings are suspicious-but-synthesizable constructs; infos
// are advisory, e.g. clustering opportunities tying lint output back
// to the paper's T1/T2 optimizations.
//
// Entry points: Analyze (a parsed netlist), LintSource (text, folding
// parse failures into the diagnostic stream), and Passes (the
// registry, for tools that want to select passes).
package analysis

import (
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/diag"
	"balsabm/internal/sexp"
)

// Severity classifies a diagnostic; see internal/diag.
type Severity = diag.Severity

// Severity levels, re-exported from internal/diag. Errors abort the
// flow's pre-synthesis gate; warnings are suspicious-but-synthesizable
// constructs; infos are advisory, e.g. clustering opportunities tying
// lint output back to the paper's T1/T2 optimizations.
const (
	SevError   = diag.SevError
	SevWarning = diag.SevWarning
	SevInfo    = diag.SevInfo
)

// Diag is one diagnostic: where (a ch.Pos), how bad, which rule, and
// why. It is the shared diag.Diag shape instantiated with source
// positions; see internal/diag for the render and sort conventions.
type Diag = diag.Diag[ch.Pos]

// Codes maps every stable diagnostic code to its one-line meaning.
// Codes are append-only: a released code never changes meaning, so
// suppressions and CI greps stay valid.
var Codes = map[string]string{
	"CH000": "source does not parse",
	"CH001": "illegal operator/activity combination (Table 1)",
	"CH002": "break outside of rep loop",
	"CH003": "channel must be passive or active",
	"CH004": "mult channel needs a positive wire count",
	"CH005": "mux channel has no arms",
	"CH010": "internal channel with two same-activity ends",
	"CH011": "channel connected to more than two components",
	"CH012": "conflicting declarations of one channel",
	"CH013": "component shares no channel with the rest of the netlist",
	"CH014": "two components with one name",
	"CH020": "unreachable: preceding expression always breaks",
	"CH021": "unreachable: preceding rep loop never terminates",
	"CH022": "rep body always breaks; loop runs at most once",
	"CH030": "mutex alternatives guarded by the same channel",
	"CH040": "verb signal repeats an edge without the opposite edge",
	"CH041": "verb signal does not return to its initial level",
	"CH042": "verb declares no transitions",
	"CH043": "verb's first event is empty; activity inferred from a later event",
	"CH100": "hideable internal channel: T1 activation-channel-removal candidate",
	"CH101": "call-shaped component: T2 call-distribution candidate",
}

// Reporter collects diagnostics during a pass run.
type Reporter = diag.Reporter[ch.Pos]

// Pass is one analyzer pass: a name, a one-line doc string and a run
// function receiving the netlist under analysis.
type Pass struct {
	Name string
	Doc  string
	Run  func(n *core.Netlist, r *Reporter)
}

// Passes returns the full pass registry in its fixed run order.
func Passes() []*Pass {
	return []*Pass{
		LegalityPass,
		ChannelsPass,
		UnreachablePass,
		MutexPass,
		VerbPass,
		ClusterPass,
	}
}

// Run executes the given passes over a netlist and returns the merged
// diagnostics sorted by position, then code, then message — a stable,
// deterministic order at any pass count.
func Run(n *core.Netlist, passes []*Pass) []Diag {
	r := &Reporter{}
	for _, p := range passes {
		p.Run(n, r)
	}
	ds := r.Diags()
	diag.Sort(ds)
	return ds
}

// Analyze runs every registered pass over a netlist.
func Analyze(n *core.Netlist) []Diag { return Run(n, Passes()) }

// LintSource lints CH source text: a sequence of (program name expr)
// forms, or a single bare expression (wrapped as program "main").
// Parse failures do not abort the lint; they surface as a single
// CH000 error diagnostic carrying the parser's position, so every
// caller — CLI, daemon, golden tests — sees one uniform stream.
func LintSource(src string) []Diag {
	n, d := parseSource(src)
	if d != nil {
		return []Diag{*d}
	}
	return Analyze(n)
}

// parseSource reads lint input with core.ParseNetlist, translating a
// parse error into a CH000 diagnostic.
func parseSource(src string) (*core.Netlist, *Diag) {
	n, err := core.ParseNetlist(src)
	if err != nil {
		return nil, parseDiag(err)
	}
	return n, nil
}

// parseDiag converts a parser error (ch.ParseError or
// sexp.SyntaxError) into a CH000 diagnostic at the error's position.
func parseDiag(err error) *Diag {
	d := &Diag{Severity: SevError, Code: "CH000", Message: err.Error()}
	switch e := err.(type) {
	case *ch.ParseError:
		d.Loc = e.Pos
		d.Message = e.Msg
	case *sexp.SyntaxError:
		d.Loc = ch.Pos{Line: e.Line, Col: e.Col}
		d.Message = e.Msg
	}
	return d
}

// Count tallies diagnostics by severity.
func Count(ds []Diag) (errors, warnings, infos int) { return diag.Count(ds) }

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(ds []Diag) bool { return diag.HasErrors(ds) }

// Format renders diagnostics vet-style, one per line (plus note
// lines), prefixed with file when non-empty.
func Format(ds []Diag, file string) string { return diag.Format(ds, file) }
