// Package balsabm is a Go reproduction of "A Burst-Mode Oriented
// Back-End for the Balsa Synthesis System" (Chelcea, Bardsley, Edwards,
// Nowick — DATE 2002): a complete asynchronous-synthesis back-end that
//
//   - compiles a Balsa-subset hardware description into a handshake
//     component netlist (the balsa-c step),
//   - models every control component in the CH channel language,
//   - optimizes the control network by clustering (activation channel
//     removal and call distribution),
//   - compiles the clustered controllers into Burst-Mode specifications,
//   - synthesizes them into hazard-free two-level logic (a Minimalist
//     substitute built on Nowick–Dill hazard-free minimization),
//   - technology-maps them onto a 0.35µm-class cell library with
//     hazard-non-increasing transformations only, and
//   - simulates complete designs (control + behavioral datapath) with an
//     event-driven gate-level simulator to reproduce the paper's
//     Table 3.
//
// The clustering optimizations are formally verified with a
// trace-theory checker (compose + hide + conformance over Petri-net
// semantics), mechanizing the paper's Section 4.3 experiment.
//
// This facade re-exports the main entry points; the implementation
// lives in the internal packages (see DESIGN.md for the system map).
package balsabm

import (
	"context"
	"fmt"

	"balsabm/internal/balsa"
	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hc"
	"balsabm/internal/minimalist"
	"balsabm/internal/techmap"
)

// Re-exported core types.
type (
	// CHProgram is a named CH program describing one controller.
	CHProgram = ch.Program
	// BMSpec is a Burst-Mode controller specification.
	BMSpec = bm.Spec
	// ControlNetlist is a network of control components (CH programs).
	ControlNetlist = core.Netlist
	// ClusterReport describes what the clustering optimizations did.
	ClusterReport = core.Report
	// Controller is a synthesized controller: hazard-free covers for
	// every output and state variable.
	Controller = minimalist.Controller
	// GateNetlist is a mapped gate-level netlist.
	GateNetlist = gates.Netlist
	// Library is a standard-cell library.
	Library = cell.Library
	// HCNetlist is a handshake-component netlist (balsa-c output).
	HCNetlist = hc.Netlist
	// Design is a complete benchmark design (control + datapath +
	// benchmark environment).
	Design = designs.Design
	// DesignResult is one Table 3 row.
	DesignResult = flow.DesignResult
	// FlowOptions tunes the end-to-end flow.
	FlowOptions = flow.Options
	// FlowMetrics collects synthesis-cache and stage-timing counters
	// across a flow run (set FlowOptions.Metrics to observe one).
	FlowMetrics = flow.Metrics
)

// Mapping modes (see package techmap).
const (
	// MapSpeedSplit is the paper's optimized-controller mapping:
	// single-output NAND-NAND logic, the two levels mapped separately.
	MapSpeedSplit = techmap.SpeedSplit
	// MapAreaShared is the baseline mapping with shared products and
	// C-element peepholes.
	MapAreaShared = techmap.AreaShared
)

// ParseCH parses a CH expression (Section 3 concrete syntax).
func ParseCH(src string) (ch.Expr, error) { return ch.Parse(src) }

// ParseCHProgram parses a named CH program: (program name expr).
func ParseCHProgram(src string) (*CHProgram, error) { return ch.ParseProgram(src) }

// ValidateCH checks the Burst-Mode aware restrictions (Table 1).
func ValidateCH(e ch.Expr) error { return ch.Validate(e) }

// CompileCH translates a CH program into a Burst-Mode specification
// (the CH-to-BMS algorithm of Section 3.6), including the final
// well-formedness check.
func CompileCH(p *CHProgram) (*BMSpec, error) { return chtobm.Compile(p) }

// Optimize runs the clustering optimizations of Section 4 (call
// distribution, which subsumes activation channel removal) on a control
// netlist, returning the clustered netlist and a report.
func Optimize(n *ControlNetlist) (*ControlNetlist, *ClusterReport, error) {
	return core.Optimize(n)
}

// VerifyActivationChannelRemoval reruns the Section 4.3 trace-theory
// verification for one activating/activated component pair.
func VerifyActivationChannelRemoval(channel string, x, y *CHProgram) error {
	return core.VerifyActivationChannelRemoval(channel, x, y)
}

// Synthesize turns a Burst-Mode specification into hazard-free
// two-level logic (the Minimalist step).
func Synthesize(sp *BMSpec) (*Controller, error) { return minimalist.Synthesize(sp) }

// Map technology-maps a synthesized controller.
func Map(ctrl *Controller, mode techmap.Mode, lib *Library) (*GateNetlist, error) {
	return techmap.MapController(ctrl, mode, lib)
}

// AuditMapped statically verifies a speed-split-mapped controller
// hazard-free with hazver, the flow's own mapped-logic check (the
// Section 5 hazard-freedom argument): on every burst the minimizer
// specified, each output and state function must hold glitch-free and
// match its hazard-free cover at both endpoints. It returns an error
// naming the first HZ error finding, or nil when there is none.
func AuditMapped(ctrl *Controller, nl *GateNetlist, lib *Library) error {
	res := hazver.Audit(nl.Name, []hazver.Unit{hazver.ControllerUnit(nl.Name, ctrl, nl)}, lib, hazver.Options{})
	for _, d := range res.Diags {
		if d.Severity == hazver.SevError {
			return fmt.Errorf("hazver: %s", d.Render(res.Name))
		}
	}
	return nil
}

// DefaultLibrary returns the bundled 0.35µm-class cell library.
func DefaultLibrary() *Library { return cell.AMS035() }

// CompileBalsa compiles Balsa-subset source text into a handshake
// component netlist (the balsa-c step of Fig 1).
func CompileBalsa(src, designName string) (*HCNetlist, error) {
	return balsa.CompileSource(src, designName)
}

// Designs returns the paper's four benchmark designs (Table 3).
func Designs() []*Design { return designs.All() }

// DesignByName finds a benchmark design by its Table 3 name.
func DesignByName(name string) (*Design, error) { return designs.ByName(name) }

// BalsaDesigns returns the four designs compiled from their Balsa
// sources instead of the hand-built netlists.
func BalsaDesigns() ([]*Design, error) { return designs.AllBalsa() }

// RunDesign executes the full back-end on one design: both arms
// (unoptimized baseline and clustered/speed-mapped), each synthesized,
// mapped, audited and simulated against the paper's benchmark.
func RunDesign(d *Design, opt *FlowOptions) (*DesignResult, error) {
	return flow.RunDesign(d, opt)
}

// RunDesignCtx is RunDesign with cancellation: the run stops cleanly
// at the next leaf boundary when ctx is cancelled.
func RunDesignCtx(ctx context.Context, d *Design, opt *FlowOptions) (*DesignResult, error) {
	return flow.RunDesignCtx(ctx, d, opt)
}

// RunAll executes the flow on all four designs.
func RunAll(opt *FlowOptions) ([]*DesignResult, error) { return flow.RunAll(opt) }

// RunAllCtx is RunAll with cancellation (see RunDesignCtx).
func RunAllCtx(ctx context.Context, opt *FlowOptions) ([]*DesignResult, error) {
	return flow.RunAllCtx(ctx, opt)
}

// Table3 formats results in the paper's Table 3 layout.
func Table3(results []*DesignResult) string { return flow.Table3(results) }

// designsBalsaSource exposes the embedded Balsa sources (used by the
// benchmarks and examples).
func designsBalsaSource(name string) (string, error) { return designs.BalsaSource(name) }

// BalsaSource returns the embedded Balsa source text of a benchmark
// design ("counter8", "stack", "wagging", "ssem").
func BalsaSource(name string) (string, error) { return designs.BalsaSource(name) }

// ClusterOptions tunes the clustering engine (e.g. MaxStates bounds the
// Burst-Mode state count of any clustered controller).
type ClusterOptions = core.Options

// OptimizeWithOptions is Optimize with tunable clustering limits.
func OptimizeWithOptions(n *ControlNetlist, opt ClusterOptions) (*ControlNetlist, *ClusterReport, error) {
	return core.OptimizeOpt(n, opt)
}

// MinimizeStates merges behaviorally identical (bisimilar) states of a
// Burst-Mode specification — Minimalist's state-minimization step.
func MinimizeStates(sp *BMSpec) (*BMSpec, error) { return minimalist.MinimizeStates(sp) }

// designsStackWithWidth exposes the width-parameterized stack for the
// control-domination ablation.
func designsStackWithWidth(name string, width int) *Design {
	return designs.StackWithWidth(name, width)
}
