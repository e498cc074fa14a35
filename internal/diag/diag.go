// Package diag is the shared diagnostics layer of the four checker
// tiers: chlint (internal/analysis, CHxxx codes over CH programs),
// bmlint (internal/bmlint, BMxxx codes over Burst-Mode specs), netlint
// (internal/netlint, NLxxx codes over mapped netlists) and hazver
// (internal/hazver, HZxxx codes over the shipped logic's bursts) all
// emit through the types here. One Severity scale, one Diag shape, one
// vet-style renderer and one deterministic sort — so the CLI, the
// daemon's SSE stream, /metrics and the golden corpora agree on the
// wire format no matter which layer of the flow produced a finding.
//
// The only thing that differs between the linters is *where* a finding
// lives: a source position for CH programs, a state/arc/signal for
// Burst-Mode specs, a gate/net pair for netlists, a function and burst
// for hazard checks. That variability is captured by the Loc
// interface; everything else is generic over it. Each linter
// instantiates Diag[L]/Reporter[L] with its own location type and
// re-exports aliases. Above this layer the tiers share one path too:
// internal/flow gates every tier through one severity split into one
// GateError type and one findings sink, internal/server serves every
// tier through one Checker, and wire-form diagnostics render back
// through Diag.Render (ParseSeverity inverts Severity.String).
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic, following go vet conventions.
type Severity int

const (
	// SevError marks violations that make the artifact unusable (an
	// unsynthesizable program, an ill-formed spec, a miswired
	// netlist). Errors abort the flow's gates.
	SevError Severity = iota
	// SevWarning marks suspicious-but-functional constructs.
	SevWarning
	// SevInfo marks advisory findings, e.g. static reports and
	// optimization opportunities.
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	case SevInfo:
		return "info"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// ParseSeverity is the inverse of Severity.String, for diagnostics read
// back from their wire form. An unknown name parses as an out-of-range
// Severity, which renders as such instead of passing for a known one.
func ParseSeverity(name string) Severity {
	for s := SevError; s <= SevInfo; s++ {
		if s.String() == name {
			return s
		}
	}
	return Severity(-1)
}

// Loc is a diagnostic location: where in its artifact a finding lives.
// Implementations are small value types (ch.Pos, bmlint.Loc,
// netlint.Loc).
type Loc interface {
	// Fragment renders the location for the diagnostic header, without
	// a trailing colon, e.g. "3:5", "state 2", `g12(NAND2) net "a_r"`.
	// An empty text means the finding is artifact-level and the header
	// carries no location. Tight locations (source positions) attach
	// directly to the unit prefix ("file.ch:3:5:"); loose ones are
	// space-separated ("stack.opt: g12(NAND2):").
	Fragment() (text string, tight bool)
	// Key returns the primary and secondary sort components of the
	// location (line/col, state/arc, inst/net). Diagnostics sort by
	// Key, then Code, then Message.
	Key() (a, b int)
}

// Diag is one diagnostic: where, how bad, which rule, and why.
type Diag[L Loc] struct {
	Loc      L
	Severity Severity
	Code     string // stable "XXnnn" code, see the package's Codes table
	Message  string
	Notes    []string // secondary lines: table rows, related locations
}

// String renders the diagnostic without a unit prefix.
func (d Diag[L]) String() string { return d.Render("") }

// Render renders the diagnostic vet-style, prefixed with the unit (a
// file name, a spec name, a circuit name) when non-empty:
//
//	file.ch:3:5: error: CH001: ...
//	stack: arc 2 (0 -> 1 : a+ / r+): error: BM005: ...
//	stack.opt: g12(NAND2): error: NL004: ...
//
// Diagnostics with an empty location fragment omit the location rather
// than printing a bogus one. Notes follow on tab-indented lines.
func (d Diag[L]) Render(unit string) string {
	var sb strings.Builder
	if unit != "" {
		sb.WriteString(unit)
		sb.WriteString(":")
	}
	if frag, tight := d.Loc.Fragment(); frag != "" {
		if !tight && sb.Len() > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(frag)
		sb.WriteString(":")
	}
	if sb.Len() > 0 {
		sb.WriteString(" ")
	}
	fmt.Fprintf(&sb, "%s: %s: %s", d.Severity, d.Code, d.Message)
	for _, n := range d.Notes {
		sb.WriteString("\n\t")
		sb.WriteString(n)
	}
	return sb.String()
}

// Reporter collects diagnostics during a pass run.
type Reporter[L Loc] struct {
	diags []Diag[L]
}

// Report appends one diagnostic.
func (r *Reporter[L]) Report(d Diag[L]) { r.diags = append(r.diags, d) }

// Errorf reports an error-severity diagnostic at loc.
func (r *Reporter[L]) Errorf(loc L, code, format string, args ...any) {
	r.Report(Diag[L]{Loc: loc, Severity: SevError, Code: code, Message: fmt.Sprintf(format, args...)})
}

// Warnf reports a warning-severity diagnostic at loc.
func (r *Reporter[L]) Warnf(loc L, code, format string, args ...any) {
	r.Report(Diag[L]{Loc: loc, Severity: SevWarning, Code: code, Message: fmt.Sprintf(format, args...)})
}

// Infof reports an info-severity diagnostic at loc.
func (r *Reporter[L]) Infof(loc L, code, format string, args ...any) {
	r.Report(Diag[L]{Loc: loc, Severity: SevInfo, Code: code, Message: fmt.Sprintf(format, args...)})
}

// Note attaches a note to the most recently reported diagnostic.
func (r *Reporter[L]) Note(format string, args ...any) {
	if len(r.diags) == 0 {
		return
	}
	d := &r.diags[len(r.diags)-1]
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// Diags returns the collected diagnostics in report order.
func (r *Reporter[L]) Diags() []Diag[L] { return r.diags }

// Sort orders diagnostics by location key, then code, then message —
// a stable, byte-deterministic order at any pass count.
func Sort[L Loc](ds []Diag[L]) {
	sort.SliceStable(ds, func(i, j int) bool {
		ai, bi := ds[i].Loc.Key()
		aj, bj := ds[j].Loc.Key()
		if ai != aj {
			return ai < aj
		}
		if bi != bj {
			return bi < bj
		}
		if ds[i].Code != ds[j].Code {
			return ds[i].Code < ds[j].Code
		}
		return ds[i].Message < ds[j].Message
	})
}

// Count tallies diagnostics by severity.
func Count[L Loc](ds []Diag[L]) (errors, warnings, infos int) {
	for _, d := range ds {
		switch d.Severity {
		case SevError:
			errors++
		case SevWarning:
			warnings++
		default:
			infos++
		}
	}
	return
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors[L Loc](ds []Diag[L]) bool {
	e, _, _ := Count(ds)
	return e > 0
}

// HasCode reports whether any diagnostic carries the given code.
func HasCode[L Loc](ds []Diag[L], code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// Format renders diagnostics vet-style, one per line (plus note
// lines), prefixed with the unit when non-empty.
func Format[L Loc](ds []Diag[L], unit string) string {
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString(d.Render(unit))
		sb.WriteString("\n")
	}
	return sb.String()
}
