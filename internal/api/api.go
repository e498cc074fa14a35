// Package api defines the wire types shared by every machine-facing
// surface of the back-end: the balsabmd HTTP daemon, its Go client,
// and the CLI's -json output. The CLI encodes a local flow run with
// the exact same structs the server uses for its responses, so a
// result fetched over HTTP is byte-identical to one computed in
// process — which is what the end-to-end tests assert.
//
// It also holds FlowConfig, the extracted flow setup both entry
// points build their flow.Options from.
package api

import (
	"encoding/json"
	"fmt"

	"balsabm/internal/analysis"
	"balsabm/internal/bmlint"
	"balsabm/internal/core"
	"balsabm/internal/flow"
	"balsabm/internal/hazver"
	"balsabm/internal/netlint"
	"balsabm/internal/store"
)

// FlowConfig is the serializable subset of the flow's tuning knobs —
// the ones a remote caller may set. It is the single flow-setup
// struct shared by the CLI and the daemon.
type FlowConfig struct {
	// Workers bounds the per-run worker pool; 0 means all CPU cores.
	// It never changes results (the flow is deterministic at any
	// worker count), so it is excluded from dedup keys.
	Workers int `json:"workers,omitempty"`
	// MaxStates bounds the Burst-Mode state count of clustered
	// controllers (0 = unlimited).
	MaxStates int `json:"maxStates,omitempty"`
	// SkipAudit disables the exhaustive hazard audit of mapped
	// optimized controllers.
	SkipAudit bool `json:"skipAudit,omitempty"`
	// TimeLimit and EventLimit bound each benchmark simulation
	// (0 = the flow defaults).
	TimeLimit  float64 `json:"timeLimit,omitempty"`
	EventLimit int64   `json:"eventLimit,omitempty"`
}

// Options builds the flow configuration for one run, attaching the
// given metrics sink (nil for none).
func (c FlowConfig) Options(met *flow.Metrics) *flow.Options {
	return &flow.Options{
		Cluster:    core.Options{MaxStates: c.MaxStates},
		SkipAudit:  c.SkipAudit,
		TimeLimit:  c.TimeLimit,
		EventLimit: c.EventLimit,
		Workers:    c.Workers,
		Metrics:    met,
	}
}

// Key renders the result-affecting knobs as a deterministic dedup-key
// fragment. Workers is deliberately omitted: the flow produces
// identical results at any worker count.
func (c FlowConfig) Key() string {
	return fmt.Sprintf("maxStates=%d|skipAudit=%t|timeLimit=%g|eventLimit=%d",
		c.MaxStates, c.SkipAudit, c.TimeLimit, c.EventLimit)
}

// Job kinds accepted by the daemon.
const (
	// KindDesign runs the full two-arm flow (synthesis + benchmark
	// simulation) on one named built-in design.
	KindDesign = "design"
	// KindTable3 runs the full flow on all Table 3 designs.
	KindTable3 = "table3"
	// KindSynth synthesizes a submitted design (CH control netlist or
	// Balsa source) into mapped gate netlists, without simulation.
	KindSynth = "synth"
)

// Source formats for KindSynth.
const (
	FormatCH    = "ch"    // a CH control netlist: one or more (program ...) forms
	FormatBalsa = "balsa" // Balsa-subset source text
)

// FormatBMS is a Burst-Mode specification in .bms text form; accepted
// only by POST /api/v1/bmlint, which lints the spec directly instead
// of compiling a design.
const FormatBMS = "bms"

// Synthesis modes for KindSynth.
const (
	// ModeUnopt is the baseline arm: the netlist as submitted,
	// area-shared mapping (hand-library shapes where they apply).
	ModeUnopt = "unopt"
	// ModeOpt is the paper's arm: clustering, then speed-split
	// mapping. The default.
	ModeOpt = "opt"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRequest is the body of POST /api/v1/jobs.
type JobRequest struct {
	Kind   string     `json:"kind"`
	Design string     `json:"design,omitempty"` // KindDesign: a built-in design name
	Source string     `json:"source,omitempty"` // KindSynth: design text
	Format string     `json:"format,omitempty"` // KindSynth: "ch" (default) or "balsa"
	Name   string     `json:"name,omitempty"`   // KindSynth+balsa: design name for the compiler
	Mode   string     `json:"mode,omitempty"`   // KindSynth: "opt" (default) or "unopt"
	Config FlowConfig `json:"config"`
	// BaseJobID marks an incremental resubmission: the ID of a prior
	// job this request is an edit of. Submission fails if the ID is
	// unknown. It never changes the result — the daemon's controller
	// cache already reuses every unchanged canonical subtree — so it is
	// excluded from the dedup key; it declares intent and is echoed in
	// JobStatus so clients can correlate edit loops.
	BaseJobID string `json:"baseJobID,omitempty"`
}

// JobStatus describes one job.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Dedup reports that the job's result came from the dedup cache —
	// an identical design (same canonical key) was already synthesized
	// or in flight, so this job did not re-run the flow.
	Dedup bool `json:"dedup,omitempty"`
	// Key is the job's canonical dedup key digest.
	Key string `json:"key,omitempty"`
	// Disk reports that the job's result came from the on-disk artifact
	// cache — a prior daemon run (or an earlier job this run) already
	// synthesized the identical design and its blob survived restart.
	Disk bool `json:"disk,omitempty"`
	// ResumedFrom names the last pipeline stage checkpointed before the
	// daemon was interrupted, for jobs re-enqueued from the journal at
	// boot; completed stages restore from disk instead of recomputing.
	ResumedFrom string `json:"resumedFrom,omitempty"`
	// BaseJobID echoes the incremental base named in the request.
	BaseJobID string `json:"baseJobID,omitempty"`
	// ControllersReused / ControllersResynthesized report the job's
	// incremental resynthesis split: distinct canonical controller
	// shapes spliced in from the controller cache vs. synthesized
	// afresh. Zero for dedup- and disk-served jobs, which never reached
	// the synthesis layer.
	ControllersReused        int64  `json:"controllersReused,omitempty"`
	ControllersResynthesized int64  `json:"controllersResynthesized,omitempty"`
	Error                    string `json:"error,omitempty"`
	Created                  string `json:"created,omitempty"`
	Started                  string `json:"started,omitempty"`
	Finished                 string `json:"finished,omitempty"`
}

// ControllerJSON mirrors flow.ControllerResult.
type ControllerJSON struct {
	Name      string  `json:"name"`
	States    int     `json:"states"`
	StateBits int     `json:"stateBits"`
	Products  int     `json:"products"`
	Cells     int     `json:"cells"`
	Area      float64 `json:"area"`
	Critical  float64 `json:"critical"`
	// Exact reports the controller minimized entirely on the exact
	// path (no greedy fallback in enumeration or covering).
	Exact bool `json:"exact"`
}

// StaticJSON mirrors netlint.Stats: the static report for a merged
// gate-level circuit.
type StaticJSON struct {
	Cells       int     `json:"cells"`
	Nets        int     `json:"nets"`
	Literals    int     `json:"literals"`
	Transistors int     `json:"transistors"`
	Area        float64 `json:"area"`
	Depth       int     `json:"depth"`
	Critical    float64 `json:"critical"`
}

// ArmJSON mirrors flow.ArmResult.
type ArmJSON struct {
	Controllers  []ControllerJSON `json:"controllers"`
	ControlArea  float64          `json:"controlArea"`
	DatapathArea float64          `json:"datapathArea"`
	BenchTime    float64          `json:"benchTime"`
	Events       int64            `json:"events"`
	TotalArea    float64          `json:"totalArea"`
	// Static is the netlint static report for the arm's merged control
	// circuit.
	Static StaticJSON `json:"static"`
}

// MergeJSON mirrors core.Merge.
type MergeJSON struct {
	Channel   string `json:"channel"`
	Activator string `json:"activator"`
	Activated string `json:"activated"`
	Result    string `json:"result"`
}

// ReportJSON mirrors core.Report.
type ReportJSON struct {
	Merges        []MergeJSON       `json:"merges,omitempty"`
	Skipped       []string          `json:"skipped,omitempty"`
	CallsSplit    []string          `json:"callsSplit,omitempty"`
	CallsRestored []string          `json:"callsRestored,omitempty"`
	Containment   map[string]string `json:"containment,omitempty"`
}

// DesignResultJSON is one Table 3 row with full per-controller detail.
type DesignResultJSON struct {
	Design              string      `json:"design"`
	Bench               string      `json:"bench"`
	Unopt               ArmJSON     `json:"unopt"`
	Opt                 ArmJSON     `json:"opt"`
	SpeedImprovementPct float64     `json:"speedImprovementPct"`
	AreaOverheadPct     float64     `json:"areaOverheadPct"`
	Report              *ReportJSON `json:"report,omitempty"`
}

// SynthControllerJSON is one synthesized controller of a KindSynth
// job: its summary numbers and its mapped netlist as structural
// Verilog.
type SynthControllerJSON struct {
	Controller ControllerJSON `json:"controller"`
	Verilog    string         `json:"verilog"`
}

// SynthResultJSON is the result of a KindSynth job.
type SynthResultJSON struct {
	Mode        string                `json:"mode"`
	Controllers []SynthControllerJSON `json:"controllers"`
	Report      *ReportJSON           `json:"report,omitempty"`
	// Netlint is the structural audit of the merged circuit of all
	// synthesized controllers (gates.Merge wiring).
	Netlint *NetlintReportJSON `json:"netlint,omitempty"`
	// Hazver is the static hazard verification of the synthesized
	// controller shapes on their specified bursts.
	Hazver *HazverReportJSON `json:"hazver,omitempty"`
}

// JobResult is the body of GET /api/v1/jobs/{id}/result; exactly one
// of the payload fields is set, matching the job's kind.
type JobResult struct {
	Kind   string              `json:"kind"`
	Design *DesignResultJSON   `json:"design,omitempty"`
	Table3 []*DesignResultJSON `json:"table3,omitempty"`
	Synth  *SynthResultJSON    `json:"synth,omitempty"`
}

// Event is one element of a job's progress stream.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "state", "stage", "checkpoint", "lint", "error"
	// State carries the new job state for "state" events.
	State string `json:"state,omitempty"`
	// Dedup marks the terminal "state" event of a dedup-served job.
	Dedup bool `json:"dedup,omitempty"`
	// Disk marks the terminal "state" event of a job served from the
	// on-disk artifact cache.
	Disk bool `json:"disk,omitempty"`
	// Stage carries the persisted stage name for "checkpoint" events
	// (emitted when a pipeline stage's payload lands in the durable
	// store), and cumulative per-stage counters for "stage" events (see
	// parallel.Timings).
	Stage       string `json:"stage,omitempty"`
	Count       int64  `json:"count,omitempty"`
	TotalMicros int64  `json:"totalMicros,omitempty"`
	// ControllersReused / ControllersResynthesized ride the terminal
	// "state" event of an executed job: its incremental resynthesis
	// split (see JobStatus).
	ControllersReused        int64  `json:"controllersReused,omitempty"`
	ControllersResynthesized int64  `json:"controllersResynthesized,omitempty"`
	Error                    string `json:"error,omitempty"`
	// Lint carries one analyzer finding for "lint" events: the
	// non-error diagnostics the pre-synthesis gate surfaced.
	Lint *DiagJSON `json:"lint,omitempty"`
	// Netlint carries one netlist finding for "lint" events: the
	// non-error diagnostics the post-merge netlint gate surfaced. Its
	// Circuit field names the audited circuit (e.g. "stack.opt").
	Netlint *NetlintDiagJSON `json:"netlint,omitempty"`
	// Bmlint carries one Burst-Mode spec finding for "lint" events: the
	// non-error diagnostics the post-compile bmlint gate surfaced. Its
	// Spec field names the audited spec (e.g. "stack.opt.push_seq1").
	Bmlint *BmlintDiagJSON `json:"bmlint,omitempty"`
	// Hazver carries one static hazard-verification finding for "lint"
	// events: the non-error diagnostics the post-mapping hazver gate
	// surfaced. Its Circuit field names the verified circuit (e.g.
	// "stack.opt").
	Hazver *HazverDiagJSON `json:"hazver,omitempty"`
}

// StageJSON is one pipeline stage's cumulative counters.
type StageJSON struct {
	Count       int64 `json:"count"`
	TotalMicros int64 `json:"totalMicros"`
}

// MetricsJSON is the JSON form of the daemon's counters
// (GET /api/v1/metrics; /metrics serves the same data in Prometheus
// text format).
type MetricsJSON struct {
	JobsByState     map[string]int64 `json:"jobsByState"`
	QueueDepth      int64            `json:"queueDepth"`
	DedupHits       int64            `json:"dedupHits"`
	DedupMisses     int64            `json:"dedupMisses"`
	FlowCacheHits   int64            `json:"flowCacheHits"`
	FlowCacheMisses int64            `json:"flowCacheMisses"`
	// Minimizer work counters aggregated over every flow the daemon
	// ran: functions minimized on the exact path vs. with a greedy
	// fallback, and nodes visited by the prime enumeration and the
	// covering branch-and-bound.
	MinimizeExact  int64                `json:"minimizeExact"`
	MinimizeGreedy int64                `json:"minimizeGreedy"`
	EnumNodes      int64                `json:"enumNodes"`
	BranchNodes    int64                `json:"branchNodes"`
	Stages         map[string]StageJSON `json:"stages"`
	// Result-cache tiers: a submitted job is answered from the on-disk
	// artifact store (StoreDiskHits), the in-memory single-flight memo
	// (StoreMemHits), or executes the flow afresh (StoreMisses).
	StoreDiskHits int64 `json:"storeDiskHits"`
	StoreMemHits  int64 `json:"storeMemHits"`
	StoreMisses   int64 `json:"storeMisses"`
	// JobsResumed counts jobs re-enqueued from the journal at boot —
	// submissions that never reached a terminal state before the
	// previous daemon process stopped.
	JobsResumed int64 `json:"jobsResumed"`
	// Checkpoint traffic across every executed job: stages persisted to
	// the durable store and stages restored from it.
	CheckpointsSaved    int64 `json:"checkpointsSaved"`
	CheckpointsRestored int64 `json:"checkpointsRestored"`
	// Incremental resynthesis split across every executed job: distinct
	// canonical controller shapes served from the controller-grain
	// artifact cache vs. synthesized afresh (also exported as
	// balsabmd_incremental_controllers_total{outcome=...}).
	// ControllersCorrupt counts cached controller blobs that failed to
	// decode and were resynthesized instead.
	ControllersReused        int64 `json:"controllersReused"`
	ControllersResynthesized int64 `json:"controllersResynthesized"`
	ControllersCorrupt       int64 `json:"controllersCorrupt"`
	// Store summarizes the artifact cache on disk; present only when the
	// daemon runs with a data directory.
	Store *StoreStatsJSON `json:"store,omitempty"`
	// NetlintDiags counts netlist diagnostics by NLxxx code across
	// every flow the daemon ran (also exported as
	// balsabmd_netlint_diags_total{code=...}).
	NetlintDiags map[string]int64 `json:"netlintDiags,omitempty"`
	// BmlintDiags counts Burst-Mode spec diagnostics by BMxxx code
	// across every flow the daemon ran (also exported as
	// balsabmd_bmlint_diags_total{code=...}).
	BmlintDiags map[string]int64 `json:"bmlintDiags,omitempty"`
	// HazverDiags counts static hazard-verification diagnostics by
	// HZxxx code across every flow the daemon ran (also exported as
	// balsabmd_hazver_diags_total{code=...}).
	HazverDiags map[string]int64 `json:"hazverDiags,omitempty"`
}

// StoreStatsJSON summarizes the daemon's on-disk artifact store
// (mirrors store.Stats; present in MetricsJSON only when the daemon
// runs with a data directory). `balsabm cache stats -json` emits the
// same shape, so scripts read one schema for both surfaces.
type StoreStatsJSON struct {
	Artifacts     int   `json:"artifacts"`
	ArtifactBytes int64 `json:"artifactBytes"`
	Refs          int   `json:"refs"`
	// ControllerRefs counts controller-grain refs — the durable tier
	// behind incremental resynthesis.
	ControllerRefs int `json:"controllerRefs"`
	Checkpoints    int `json:"checkpoints"`
	// Corrupt counts artifacts that failed read-back verification this
	// daemon session (each was removed and recomputed).
	Corrupt int64 `json:"corrupt"`
}

// FromStoreStats converts a store summary to its wire form — the one
// conversion both the daemon's /metrics and `balsabm cache stats
// -json` go through, so the two surfaces agree byte for byte.
func FromStoreStats(st store.Stats) *StoreStatsJSON {
	return &StoreStatsJSON{
		Artifacts:      st.Artifacts,
		ArtifactBytes:  st.ArtifactBytes,
		Refs:           st.Refs,
		ControllerRefs: st.ControllerRefs,
		Checkpoints:    st.Checkpoints,
		Corrupt:        st.Corrupt,
	}
}

// FromControllerResult converts one controller summary.
func FromControllerResult(c flow.ControllerResult) ControllerJSON {
	return ControllerJSON{
		Name: c.Name, States: c.States, StateBits: c.StateBits,
		Products: c.Products, Cells: c.Cells, Area: c.Area, Critical: c.Critical,
		Exact: c.Exact,
	}
}

// FromArmResult converts one flow arm.
func FromArmResult(a flow.ArmResult) ArmJSON {
	out := ArmJSON{
		ControlArea:  a.ControlArea,
		DatapathArea: a.DatapathArea,
		BenchTime:    a.BenchTime,
		Events:       a.Events,
		TotalArea:    a.TotalArea(),
		Static:       FromStats(a.Static),
		Controllers:  make([]ControllerJSON, 0, len(a.Controllers)),
	}
	for _, c := range a.Controllers {
		out.Controllers = append(out.Controllers, FromControllerResult(c))
	}
	return out
}

// FromReport converts a clustering report (nil in, nil out).
func FromReport(rep *core.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	out := &ReportJSON{
		Skipped:       rep.Skipped,
		CallsSplit:    rep.CallsSplit,
		CallsRestored: rep.CallsRestored,
		Containment:   rep.Containment,
	}
	for _, m := range rep.Merges {
		out.Merges = append(out.Merges, MergeJSON{
			Channel: m.Channel, Activator: m.Activator,
			Activated: m.Activated, Result: m.Result,
		})
	}
	return out
}

// FromDesignResult converts one Table 3 row.
func FromDesignResult(r *flow.DesignResult) *DesignResultJSON {
	return &DesignResultJSON{
		Design:              r.Design,
		Bench:               r.Bench,
		Unopt:               FromArmResult(r.Unopt),
		Opt:                 FromArmResult(r.Opt),
		SpeedImprovementPct: r.SpeedImprovement(),
		AreaOverheadPct:     r.AreaOverhead(),
		Report:              FromReport(r.Report),
	}
}

// FromDesignResults converts a result list in order.
func FromDesignResults(rs []*flow.DesignResult) []*DesignResultJSON {
	out := make([]*DesignResultJSON, len(rs))
	for i, r := range rs {
		out[i] = FromDesignResult(r)
	}
	return out
}

// ToFlow converts a wire-form row back into the flow's result type,
// so remote results render through the same Table 3 / flow-report
// formatters as local ones.
func (d *DesignResultJSON) ToFlow() *flow.DesignResult {
	arm := func(a ArmJSON) flow.ArmResult {
		out := flow.ArmResult{
			ControlArea:  a.ControlArea,
			DatapathArea: a.DatapathArea,
			BenchTime:    a.BenchTime,
			Events:       a.Events,
			Static:       a.Static.ToStats(),
			Controllers:  make([]flow.ControllerResult, 0, len(a.Controllers)),
		}
		for _, c := range a.Controllers {
			out.Controllers = append(out.Controllers, flow.ControllerResult{
				Name: c.Name, States: c.States, StateBits: c.StateBits,
				Products: c.Products, Cells: c.Cells, Area: c.Area, Critical: c.Critical,
				Exact: c.Exact,
			})
		}
		return out
	}
	return &flow.DesignResult{
		Design: d.Design,
		Bench:  d.Bench,
		Unopt:  arm(d.Unopt),
		Opt:    arm(d.Opt),
	}
}

// LintRequest is the body of POST /api/v1/lint: CH source to analyze
// (a netlist of (program ...) forms or a single bare expression) and
// an optional file name echoed into the result for rendering.
type LintRequest struct {
	Source string `json:"source"`
	File   string `json:"file,omitempty"`
}

// DiagJSON mirrors analysis.Diag. Line and Col are omitted for
// findings on programmatically built nodes, matching the text
// renderer's position-free form.
type DiagJSON struct {
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Severity string   `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// LintResultJSON is the body answered by POST /api/v1/lint and emitted
// by `balsabm lint -json` — the same struct through the same encoder,
// so the two surfaces are byte-identical for the same input.
type LintResultJSON struct {
	File     string     `json:"file,omitempty"`
	Diags    []DiagJSON `json:"diags"`
	Errors   int        `json:"errors"`
	Warnings int        `json:"warnings"`
	Infos    int        `json:"infos"`
}

// FromDiag converts one analyzer finding.
func FromDiag(d analysis.Diag) DiagJSON {
	return DiagJSON{
		Line:     d.Loc.Line,
		Col:      d.Loc.Col,
		Severity: d.Severity.String(),
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// LintResult packages a diagnostic list for the wire. Diags is always
// non-nil so a clean lint encodes as [] rather than null.
func LintResult(file string, ds []analysis.Diag) *LintResultJSON {
	out := &LintResultJSON{File: file, Diags: make([]DiagJSON, 0, len(ds))}
	for _, d := range ds {
		out.Diags = append(out.Diags, FromDiag(d))
	}
	out.Errors, out.Warnings, out.Infos = analysis.Count(ds)
	return out
}

// NetlintRequest is the body of POST /api/v1/netlint: design source to
// synthesize (without simulation) and structurally audit. Fields match
// the KindSynth job request: Source in the given Format ("ch" default,
// "balsa"), Mode selecting the arm ("opt" default, "unopt"), and the
// flow config.
type NetlintRequest struct {
	Source string     `json:"source"`
	Format string     `json:"format,omitempty"`
	Name   string     `json:"name,omitempty"`
	Mode   string     `json:"mode,omitempty"`
	Config FlowConfig `json:"config"`
}

// NetlintDiagJSON mirrors netlint.Diag. Inst and Net are -1 for
// circuit-level findings, matching netlint.NoLoc.
type NetlintDiagJSON struct {
	// Circuit names the audited circuit on event streams (e.g.
	// "stack.opt"); omitted inside NetlintReportJSON, whose Circuit
	// field carries it once.
	Circuit  string   `json:"circuit,omitempty"`
	Inst     int      `json:"inst"`
	Cell     string   `json:"cell,omitempty"`
	Net      int      `json:"net"`
	Name     string   `json:"name,omitempty"`
	Severity string   `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// NetlintReportJSON is the audit of one circuit: its diagnostics and
// static report, with severity tallies.
type NetlintReportJSON struct {
	Circuit  string            `json:"circuit"`
	Static   StaticJSON        `json:"static"`
	Diags    []NetlintDiagJSON `json:"diags"`
	Errors   int               `json:"errors"`
	Warnings int               `json:"warnings"`
	Infos    int               `json:"infos"`
}

// NetlintResultJSON is the body answered by POST /api/v1/netlint and
// emitted by `balsabm netlint -json`: per-controller audits plus the
// merged-circuit audit.
type NetlintResultJSON struct {
	Mode        string              `json:"mode"`
	Controllers []NetlintReportJSON `json:"controllers"`
	Merged      NetlintReportJSON   `json:"merged"`
}

// FromStats converts a static report.
func FromStats(s netlint.Stats) StaticJSON {
	return StaticJSON{
		Cells: s.Cells, Nets: s.Nets, Literals: s.Literals,
		Transistors: s.Transistors, Area: s.Area, Depth: s.Depth, Critical: s.Critical,
	}
}

// ToStats converts a wire-form static report back.
func (s StaticJSON) ToStats() netlint.Stats {
	return netlint.Stats{
		Cells: s.Cells, Nets: s.Nets, Literals: s.Literals,
		Transistors: s.Transistors, Area: s.Area, Depth: s.Depth, Critical: s.Critical,
	}
}

// FromNetlintDiag converts one netlist finding.
func FromNetlintDiag(d netlint.Diag) NetlintDiagJSON {
	return NetlintDiagJSON{
		Inst:     d.Loc.Inst,
		Cell:     d.Loc.Cell,
		Net:      d.Loc.Net,
		Name:     d.Loc.Name,
		Severity: d.Severity.String(),
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// NetlintReport packages one audit result for the wire. Diags is
// always non-nil so a clean audit encodes as [] rather than null.
func NetlintReport(res netlint.Result) NetlintReportJSON {
	out := NetlintReportJSON{
		Circuit: res.Name,
		Static:  FromStats(res.Stats),
		Diags:   make([]NetlintDiagJSON, 0, len(res.Diags)),
	}
	for _, d := range res.Diags {
		out.Diags = append(out.Diags, FromNetlintDiag(d))
	}
	out.Errors, out.Warnings, out.Infos = netlint.Count(res.Diags)
	return out
}

// NetlintResult packages a synthesize-and-audit run (per-controller
// audits plus the merged circuit) for the wire. Controllers is always
// non-nil so an empty netlist encodes as [] rather than null.
func NetlintResult(mode string, ctrls []netlint.Result, merged netlint.Result) *NetlintResultJSON {
	out := &NetlintResultJSON{
		Mode:        mode,
		Controllers: make([]NetlintReportJSON, 0, len(ctrls)),
		Merged:      NetlintReport(merged),
	}
	for _, c := range ctrls {
		out.Controllers = append(out.Controllers, NetlintReport(c))
	}
	return out
}

// BmlintRequest is the body of POST /api/v1/bmlint: either a CH
// design whose components are compiled to Burst-Mode specifications
// and audited (Format "ch" default, "balsa"), or a single .bms spec
// linted directly (Format "bms").
type BmlintRequest struct {
	Source string `json:"source"`
	Format string `json:"format,omitempty"`
	Name   string `json:"name,omitempty"`
}

// BmlintDiagJSON mirrors bmlint.Diag. State and Arc are -1 for
// spec-level findings, matching bmlint.NoLoc.
type BmlintDiagJSON struct {
	// Spec names the audited spec on event streams (e.g.
	// "stack.opt.push_seq1"); omitted inside BmlintReportJSON, whose
	// Spec field carries it once.
	Spec     string   `json:"spec,omitempty"`
	State    int      `json:"state"`
	Arc      int      `json:"arc"`
	ArcText  string   `json:"arcText,omitempty"`
	Sig      string   `json:"sig,omitempty"`
	Severity string   `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// BmStatsJSON mirrors bmlint.Stats: the BM200 static complexity
// report for one spec.
type BmStatsJSON struct {
	States  int    `json:"states"`
	Arcs    int    `json:"arcs"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	MaxIn   int    `json:"maxIn"`
	MaxOut  int    `json:"maxOut"`
	Toggles int    `json:"toggles"`
	Worst   string `json:"worst,omitempty"`
	WorstN  int    `json:"worstN"`
	Budget  int    `json:"budget"`
}

// BmlintReportJSON is the audit of one Burst-Mode specification: its
// diagnostics and static report, with severity tallies.
type BmlintReportJSON struct {
	Spec     string           `json:"spec"`
	Stats    BmStatsJSON      `json:"stats"`
	Diags    []BmlintDiagJSON `json:"diags"`
	Errors   int              `json:"errors"`
	Warnings int              `json:"warnings"`
	Infos    int              `json:"infos"`
}

// BmlintResultJSON is the body answered by POST /api/v1/bmlint and
// emitted by `balsabm bmlint -json`: one audit per compiled component
// spec (a single entry for Format "bms"). Design and Mode tag the
// built-in-designs CLI mode and are empty on file/endpoint results.
type BmlintResultJSON struct {
	Design string             `json:"design,omitempty"`
	Mode   string             `json:"mode,omitempty"`
	Specs  []BmlintReportJSON `json:"specs"`
}

// FromBmStats converts a spec complexity report.
func FromBmStats(s bmlint.Stats) BmStatsJSON {
	return BmStatsJSON{
		States: s.States, Arcs: s.Arcs, Inputs: s.Inputs, Outputs: s.Outputs,
		MaxIn: s.MaxIn, MaxOut: s.MaxOut, Toggles: s.Toggles,
		Worst: s.Worst, WorstN: s.WorstN, Budget: s.Budget,
	}
}

// FromBmlintDiag converts one spec finding.
func FromBmlintDiag(d bmlint.Diag) BmlintDiagJSON {
	return BmlintDiagJSON{
		State:    d.Loc.State,
		Arc:      d.Loc.Arc,
		ArcText:  d.Loc.ArcText,
		Sig:      d.Loc.Sig,
		Severity: d.Severity.String(),
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// BmlintReport packages one spec audit for the wire. Diags is always
// non-nil so a clean audit encodes as [] rather than null.
func BmlintReport(res bmlint.Result) BmlintReportJSON {
	out := BmlintReportJSON{
		Spec:  res.Name,
		Stats: FromBmStats(res.Stats),
		Diags: make([]BmlintDiagJSON, 0, len(res.Diags)),
	}
	for _, d := range res.Diags {
		out.Diags = append(out.Diags, FromBmlintDiag(d))
	}
	out.Errors, out.Warnings, out.Infos = bmlint.Count(res.Diags)
	return out
}

// BmlintResult packages a compile-and-audit run for the wire. Specs is
// always non-nil so an empty netlist encodes as [] rather than null.
func BmlintResult(specs []bmlint.Result) *BmlintResultJSON {
	out := &BmlintResultJSON{Specs: make([]BmlintReportJSON, 0, len(specs))}
	for _, s := range specs {
		out.Specs = append(out.Specs, BmlintReport(s))
	}
	return out
}

// HazverRequest is the body of POST /api/v1/hazver: design source
// whose controllers are synthesized, mapped, and statically verified
// hazard-free on their specified bursts. Fields match the KindSynth
// job request: Source in the given Format ("ch" default, "balsa"),
// Mode selecting the arm ("opt" default, "unopt"), and the flow
// config.
type HazverRequest struct {
	Source string     `json:"source"`
	Format string     `json:"format,omitempty"`
	Name   string     `json:"name,omitempty"`
	Mode   string     `json:"mode,omitempty"`
	Config FlowConfig `json:"config"`
}

// HazverDiagJSON mirrors hazver.Diag. Tr is -1 for function-level
// findings, matching hazver.NoLoc.
type HazverDiagJSON struct {
	// Circuit names the verified circuit on event streams (e.g.
	// "stack.opt"); omitted inside HazverReportJSON, whose Circuit
	// field carries it once.
	Circuit  string   `json:"circuit,omitempty"`
	Fn       string   `json:"fn,omitempty"`
	Tr       int      `json:"tr"`
	Burst    string   `json:"burst,omitempty"`
	Severity string   `json:"severity"`
	Code     string   `json:"code"`
	Message  string   `json:"message"`
	Notes    []string `json:"notes,omitempty"`
}

// HazverStatsJSON mirrors hazver.Stats: the static report for one
// hazard-verification audit.
type HazverStatsJSON struct {
	Units      int  `json:"units"`
	Skipped    int  `json:"skipped"`
	Functions  int  `json:"functions"`
	Bursts     int  `json:"bursts"`
	Unverified int  `json:"unverified"`
	Passes     int  `json:"passes"`
	MaxXDepth  int  `json:"maxXDepth"`
	Compiled   bool `json:"compiled"`
}

// HazverReportJSON is the verification of one circuit: its
// diagnostics and static report, with severity tallies.
type HazverReportJSON struct {
	Circuit  string           `json:"circuit"`
	Stats    HazverStatsJSON  `json:"stats"`
	Diags    []HazverDiagJSON `json:"diags"`
	Errors   int              `json:"errors"`
	Warnings int              `json:"warnings"`
	Infos    int              `json:"infos"`
}

// HazverResultJSON is the body answered by POST /api/v1/hazver and
// emitted by `balsabm hazver -json`.
type HazverResultJSON struct {
	Mode   string           `json:"mode"`
	Report HazverReportJSON `json:"report"`
}

// FromHazverDiag converts one hazard-verification finding.
func FromHazverDiag(d hazver.Diag) HazverDiagJSON {
	return HazverDiagJSON{
		Fn:       d.Loc.Fn,
		Tr:       d.Loc.Tr,
		Burst:    d.Loc.Burst,
		Severity: d.Severity.String(),
		Code:     d.Code,
		Message:  d.Message,
		Notes:    d.Notes,
	}
}

// FromHazverStats converts a hazard-verification static report.
func FromHazverStats(s hazver.Stats) HazverStatsJSON {
	return HazverStatsJSON{
		Units: s.Units, Skipped: s.Skipped, Functions: s.Functions,
		Bursts: s.Bursts, Unverified: s.Unverified, Passes: s.Passes,
		MaxXDepth: s.MaxXDepth, Compiled: s.Compiled,
	}
}

// HazverReport packages one audit result for the wire. Diags is
// always non-nil so a clean audit encodes as [] rather than null.
func HazverReport(res hazver.Result) HazverReportJSON {
	out := HazverReportJSON{
		Circuit: res.Name,
		Stats:   FromHazverStats(res.Stats),
		Diags:   make([]HazverDiagJSON, 0, len(res.Diags)),
	}
	for _, d := range res.Diags {
		out.Diags = append(out.Diags, FromHazverDiag(d))
	}
	out.Errors, out.Warnings, out.Infos = hazver.Count(res.Diags)
	return out
}

// HazverResult packages a synthesize-and-verify run for the wire.
func HazverResult(mode string, res hazver.Result) *HazverResultJSON {
	return &HazverResultJSON{Mode: mode, Report: HazverReport(res)}
}

// AuditCheckerJSON is one checker's tally inside an audit: its
// error/warning counts and how many items it covered (specs, covers,
// mapped controllers, circuits, bursts — whichever the checker
// counts).
type AuditCheckerJSON struct {
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Checked  int `json:"checked"`
}

// AuditResultJSON is one design's six-checker audit in machine form —
// the body emitted per design by `balsabm audit -json`. Checkers is
// keyed "chlint", "bmlint", "covers", "mapped", "netlint", "hazver".
type AuditResultJSON struct {
	Design   string                      `json:"design"`
	OK       bool                        `json:"ok"`
	Summary  string                      `json:"summary"`
	Checkers map[string]AuditCheckerJSON `json:"checkers"`
	Failures []string                    `json:"failures,omitempty"`
	Errors   int                         `json:"errors"`
	Warnings int                         `json:"warnings"`
}

// FromAuditResult converts one design audit to its wire form.
func FromAuditResult(a *flow.AuditResult) *AuditResultJSON {
	le, lw, _ := analysis.Count(a.LintDiags)
	var be, bw int
	for _, s := range a.Specs {
		e, w, _ := bmlint.Count(s.Diags)
		be += e
		bw += w
	}
	var ne, nw int
	for _, c := range a.Circuits {
		e, w, _ := netlint.Count(c.Diags)
		ne += e
		nw += w
	}
	var he, hw, hb int
	for _, h := range a.Hazver {
		e, w, _ := hazver.Count(h.Diags)
		he += e
		hw += w
		hb += h.Stats.Bursts
	}
	return &AuditResultJSON{
		Design:  a.Design,
		OK:      a.OK(),
		Summary: a.Summary(),
		Checkers: map[string]AuditCheckerJSON{
			"chlint":  {Errors: le, Warnings: lw, Checked: 1},
			"bmlint":  {Errors: be, Warnings: bw, Checked: a.SpecsChecked},
			"covers":  {Checked: a.CoversChecked},
			"mapped":  {Checked: a.MappedChecked},
			"netlint": {Errors: ne, Warnings: nw, Checked: len(a.Circuits)},
			"hazver":  {Errors: he, Warnings: hw, Checked: hb},
		},
		Failures: a.Failures,
		Errors:   a.Errors(),
		Warnings: a.Warnings(),
	}
}

// Encode renders any wire value in the canonical machine-readable
// form: two-space-indented JSON with a trailing newline. Both the
// server responses and the CLI's -json output go through this one
// encoder, so equal values encode to equal bytes everywhere.
func Encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
