// Package flow implements the paper's complete back-end (Fig 1): the
// control netlist of a design is optionally optimized by clustering
// (Fig 2), each resulting controller is compiled from CH to a
// Burst-Mode specification, synthesized into hazard-free two-level
// logic (Minimalist substitute), technology mapped, statically verified
// hazard-free by the hazver gate, and finally simulated together with
// the design's datapath and benchmark environment to produce the speed
// and area numbers of Table 3.
//
// Each controller compiles once outside the clustering probes: the
// bmlint gate compiles and audits every component's spec, and
// synthesis takes the gate's spec instead of compiling again. One
// gated arm (bmlint, synthesis, netlint, hazver) is the only way a
// netlist is synthesized — by the flow, the daemon's synth jobs, the
// audit and every checker (SynthesizeCheckedCtx) — so every spec that
// reaches synthesis has passed the bmlint gate, and each checker
// reports what the flow would ship.
//
// The flow is concurrent: controllers synthesize in parallel across a
// bounded worker pool, the two arms of a design run side by side, and
// rename-isomorphic controllers share one synthesis through a
// canonical-form cache. Results are deterministic — byte-identical at
// any worker count — because fan-out preserves input order and the
// cache key (see ch.Canonicalize) guarantees a cached netlist is an
// exact wire-rename of what direct synthesis would have produced.
package flow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"balsabm/internal/bm"
	"balsabm/internal/bmlint"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/dpath"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/hclib"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/parallel"
	"balsabm/internal/sim"
	"balsabm/internal/techmap"
)

// ControllerResult records one synthesized controller.
type ControllerResult struct {
	Name      string
	States    int
	StateBits int
	Products  int
	Cells     int
	Area      float64
	Critical  float64
	// Exact reports that every function of the controller was
	// minimized on the exact path (no greedy fallback in the prime
	// enumeration or the covering branch-and-bound). Hand-library
	// controllers are exact by construction.
	Exact bool
}

// ArmResult is one complete flow arm (unoptimized or optimized).
type ArmResult struct {
	Controllers  []ControllerResult
	ControlArea  float64
	DatapathArea float64
	BenchTime    float64
	Events       int64
	// Static is the netlint static report for the arm's merged control
	// circuit: literal/transistor-weighted area and topological depth,
	// the structural complement of the measured BenchTime/area numbers.
	Static netlint.Stats
}

// TotalArea is control plus datapath area (µm²).
func (a ArmResult) TotalArea() float64 { return a.ControlArea + a.DatapathArea }

// DesignResult is the Table 3 row for one design.
type DesignResult struct {
	Design string
	Bench  string
	Report *core.Report
	Unopt  ArmResult
	Opt    ArmResult
}

// SpeedImprovement is the paper's percentage speed gain.
func (r *DesignResult) SpeedImprovement() float64 {
	if r.Unopt.BenchTime == 0 {
		return 0
	}
	return 100 * (r.Unopt.BenchTime - r.Opt.BenchTime) / r.Unopt.BenchTime
}

// AreaOverhead is the paper's percentage area increase.
func (r *DesignResult) AreaOverhead() float64 {
	if r.Unopt.TotalArea() == 0 {
		return 0
	}
	return 100 * (r.Opt.TotalArea() - r.Unopt.TotalArea()) / r.Unopt.TotalArea()
}

// DebugString renders every number in the result in a fixed,
// deterministic layout (maps are sorted). Two runs of the flow produce
// byte-identical DebugStrings exactly when they produced the same
// result, which is what the determinism tests compare across worker
// counts.
func (r *DesignResult) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "design %s bench %q\n", r.Design, r.Bench)
	arm := func(label string, a ArmResult) {
		fmt.Fprintf(&sb, "%s: control=%.6f datapath=%.6f time=%.6f events=%d\n",
			label, a.ControlArea, a.DatapathArea, a.BenchTime, a.Events)
		fmt.Fprintf(&sb, "  static: %s\n", a.Static)
		for _, c := range a.Controllers {
			fmt.Fprintf(&sb, "  %s states=%d bits=%d products=%d cells=%d area=%.6f critical=%.6f exact=%t\n",
				c.Name, c.States, c.StateBits, c.Products, c.Cells, c.Area, c.Critical, c.Exact)
		}
	}
	arm("unopt", r.Unopt)
	arm("opt", r.Opt)
	if rep := r.Report; rep != nil {
		for _, m := range rep.Merges {
			fmt.Fprintf(&sb, "merge %s: %s + %s -> %s\n", m.Channel, m.Activator, m.Activated, m.Result)
		}
		fmt.Fprintf(&sb, "skipped %v\n", rep.Skipped)
		fmt.Fprintf(&sb, "calls split %v restored %v\n", rep.CallsSplit, rep.CallsRestored)
		names := make([]string, 0, len(rep.Containment))
		for name := range rep.Containment {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "contain %s -> %s\n", name, rep.Containment[name])
		}
	}
	return sb.String()
}

// Metrics collects counters across a flow run: synthesis-cache hits
// and misses, and wall-clock per stage. The zero value is ready to
// use; pass one in Options.Metrics to observe a run. All fields are
// safe for concurrent update.
type Metrics struct {
	CacheHits   parallel.Counter
	CacheMisses parallel.Counter
	Timings     parallel.Timings

	// Minimizer work counters, aggregated over every function of
	// every (non-cached, non-hand-library) controller synthesis:
	// functions solved on the exact path vs. falling back to a greedy
	// stage, and nodes visited by the prime enumeration and the
	// covering branch-and-bound.
	MinimizeExact  parallel.Counter
	MinimizeGreedy parallel.Counter
	EnumNodes      parallel.Counter
	BranchNodes    parallel.Counter

	// Checkpoint traffic: stages persisted to the run's CheckpointSink
	// and stages restored from it (restored stages skip computation —
	// nonzero loads mean the run resumed earlier work).
	CheckpointSaves parallel.Counter
	CheckpointLoads parallel.Counter

	// Incremental resynthesis counters, bumped only when the run has a
	// ControllerCache attached, once per distinct canonical shape (the
	// in-run memo folds repeats): controllers spliced in from the cache
	// vs. synthesized afresh (and written back). ControllersCorrupt
	// counts cached blobs that failed to decode — missing or
	// inconsistent verification provenance included — and were
	// resynthesized instead (those also count as resynthesized).
	ControllersReused        parallel.Counter
	ControllersResynthesized parallel.Counter
	ControllersCorrupt       parallel.Counter

	findingsMu sync.Mutex
	findings   []Finding
	notify     func(Finding)
}

// NotifyFindings registers a callback invoked synchronously, in record
// order, for every non-error finding a checker gate records — the hook
// the daemon uses to stream findings over SSE. Call before the run
// starts.
func (m *Metrics) NotifyFindings(fn func(Finding)) {
	m.findingsMu.Lock()
	defer m.findingsMu.Unlock()
	m.notify = fn
}

// Findings returns the non-error findings every gate recorded so far,
// in record order.
func (m *Metrics) Findings() []Finding {
	m.findingsMu.Lock()
	defer m.findingsMu.Unlock()
	return append([]Finding(nil), m.findings...)
}

func (m *Metrics) record(f Finding) {
	m.findingsMu.Lock()
	m.findings = append(m.findings, f)
	fn := m.notify
	m.findingsMu.Unlock()
	if fn != nil {
		fn(f)
	}
}

// String renders the metrics for human consumption.
func (m *Metrics) String() string {
	if m == nil {
		return ""
	}
	s := fmt.Sprintf("synthesis cache: %d hits, %d misses\n",
		m.CacheHits.Load(), m.CacheMisses.Load())
	if n := m.MinimizeExact.Load() + m.MinimizeGreedy.Load(); n > 0 {
		s += fmt.Sprintf("hfmin: %d/%d functions exact, %d enum nodes, %d branch nodes\n",
			m.MinimizeExact.Load(), n, m.EnumNodes.Load(), m.BranchNodes.Load())
	}
	if n := m.CheckpointSaves.Load() + m.CheckpointLoads.Load(); n > 0 {
		s += fmt.Sprintf("checkpoints: %d saved, %d restored\n",
			m.CheckpointSaves.Load(), m.CheckpointLoads.Load())
	}
	if n := m.ControllersReused.Load() + m.ControllersResynthesized.Load(); n > 0 {
		s += fmt.Sprintf("incremental: %d controllers reused, %d resynthesized",
			m.ControllersReused.Load(), m.ControllersResynthesized.Load())
		if c := m.ControllersCorrupt.Load(); c > 0 {
			s += fmt.Sprintf(", %d corrupt", c)
		}
		s += "\n"
	}
	if t := m.Timings.String(); t != "" {
		s += t
	}
	fs := m.Findings()
	for _, tier := range tiers {
		for _, f := range fs {
			if f.Tier == tier {
				s += fmt.Sprintf("%s: %s: %s\n", tier, f.Unit(), f.Diag)
			}
		}
	}
	return s
}

// Options tune the flow.
type Options struct {
	Lib *cell.Library
	// Cluster passes limits to the clustering engine (e.g. a maximum
	// Burst-Mode state count per clustered controller — the paper's
	// synthesis-run-time knob).
	Cluster core.Options
	// TimeLimit and EventLimit bound each benchmark simulation.
	TimeLimit  float64
	EventLimit int64
	// Workers bounds the number of concurrently executing leaf tasks
	// (controller syntheses, clustering runs, benchmark simulations);
	// 0 means GOMAXPROCS. Results are identical at any setting.
	Workers int
	// Metrics, when non-nil, receives cache and timing counters for
	// the run.
	Metrics *Metrics
	// Checkpoint, when non-nil, persists each completed per-design
	// pipeline stage (clustering, each finished arm) and is consulted
	// before computing one — the hook behind the daemon's
	// checkpoint/resume. Payloads are deterministic, so resuming from a
	// sink produces byte-identical results to an uninterrupted run.
	Checkpoint CheckpointSink
	// Controllers, when non-nil, is the controller-grain artifact tier
	// behind incremental resynthesis: before synthesizing a canonical
	// shape the run consults it (a hit splices the cached netlist in,
	// renamed to the component's wires), and every fresh synthesis is
	// written back. Because the cache key pins everything that affects
	// the synthesized netlist, a warm cache produces byte-identical
	// results to a cold run — only the ControllersReused /
	// ControllersResynthesized metrics differ.
	Controllers ControllerCache
}

// withDefaults returns a copy of the options with defaults filled in.
// The caller's struct is never written to, so a shared Options value
// can drive many concurrent runs.
func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Lib == nil {
		out.Lib = cell.AMS035()
	}
	if out.TimeLimit == 0 {
		out.TimeLimit = 5e6
	}
	if out.EventLimit == 0 {
		out.EventLimit = 100_000_000
	}
	return out
}

// synthEntry is one cached synthesis: the seeding component's wires in
// canonical channel order, its mapped netlist, its report, and the
// burst provenance hazver verifies the netlist against. Entries are
// immutable once published; reuse goes through Netlist.Rename, which
// deep-copies.
type synthEntry struct {
	wires   []string
	netlist *gates.Netlist
	res     ControllerResult
	// unit is the netlist's hazver unit (its Netlist is the entry's
	// own); a hand-library circuit has no burst provenance, so its unit
	// is the zero Unit, which hazver.Audit counts as skipped.
	unit hazver.Unit
}

// runner carries the shared state of one flow invocation: the
// cancellation context, the worker pool, the canonical-form synthesis
// cache (shared across both arms and, under RunAll, across designs)
// and the metrics sink.
type runner struct {
	ctx   context.Context
	opt   Options // defaults applied; never the caller's struct
	pool  *parallel.Pool
	cache parallel.Memo[*synthEntry]
	met   *Metrics
}

func newRunner(ctx context.Context, opt *Options) *runner {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &runner{ctx: ctx, opt: opt.withDefaults()}
	r.pool = parallel.NewPool(r.opt.Workers)
	r.met = r.opt.Metrics
	if r.met == nil {
		r.met = &Metrics{}
	}
	return r
}

// synthesize runs the per-controller pipeline from a compiled spec
// (two-level synthesis or hand-library lookup, mapping) with no
// caching. It is the flow's only synthesis of a controller: the
// returned entry carries the hazver unit of the netlist it ships, which
// the hazver gate verifies. sp is comp's spec, compiled by the bmlint
// gate; synthesize compiles nothing. It is a composite task: the hclib
// lookup and the map stage each take one pool slot, and the
// per-function minimizations inside minimalist.SynthesizeOpt are
// individually pool-admitted leaves — no slot is ever held while
// waiting for another.
func (r *runner) synthesize(comp *ch.Program, sp *bm.Spec, mode techmap.Mode) (*synthEntry, error) {
	tm := &r.met.Timings
	if mode == techmap.AreaShared {
		var hclibNl *gates.Netlist
		err := r.pool.RunCtx(r.ctx, func() error {
			start := time.Now()
			nl, ok := hclib.Build(comp)
			tm.Observe("hclib", time.Since(start))
			if ok {
				hclibNl = nl
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if hclibNl != nil {
			return &synthEntry{netlist: hclibNl, res: ControllerResult{
				Name:     comp.Name,
				States:   sp.NStates,
				Cells:    len(hclibNl.Instances),
				Area:     hclibNl.Area(r.opt.Lib),
				Critical: hclibNl.CriticalDelay(r.opt.Lib),
				Exact:    true, // hand-designed circuit: nothing minimized
			}, unit: hazver.Unit{Name: comp.Name}}, nil
		}
	}
	start := time.Now()
	ctrl, err := minimalist.SynthesizeOpt(sp, minimalist.Options{Pool: r.pool, Ctx: r.ctx})
	tm.Observe("synthesize", time.Since(start))
	if err != nil {
		return nil, fmt.Errorf("flow: %s: %w", comp.Name, err)
	}
	st := ctrl.Stats
	r.met.MinimizeExact.Add(int64(st.ExactFunctions))
	r.met.MinimizeGreedy.Add(int64(st.Functions - st.ExactFunctions))
	r.met.EnumNodes.Add(st.EnumNodes)
	r.met.BranchNodes.Add(st.BranchNodes)
	var nl *gates.Netlist
	err = r.pool.RunCtx(r.ctx, func() error {
		start := time.Now()
		var err error
		nl, err = techmap.MapController(ctrl, mode, r.opt.Lib)
		tm.Observe("map", time.Since(start))
		if err != nil {
			return fmt.Errorf("flow: %s: %w", comp.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &synthEntry{netlist: nl, res: ControllerResult{
		Name:      comp.Name,
		States:    sp.NStates,
		StateBits: ctrl.StateBits,
		Products:  ctrl.Products(),
		Cells:     len(nl.Instances),
		Area:      nl.Area(r.opt.Lib),
		Critical:  nl.CriticalDelay(r.opt.Lib),
		Exact:     st.Exact(),
	}, unit: hazver.ControllerUnit(comp.Name, ctrl, nl)}, nil
}

// shipped is one component's controller as the flow emits it: the
// netlist and hazver unit renamed onto the component's wires, and its
// report. shape is the canonical memo key; rename-isomorphic
// components share it.
type shipped struct {
	nl    *gates.Netlist
	res   ControllerResult
	unit  hazver.Unit
	shape string
}

// synthOne synthesizes one controller, compiled to sp, through the
// canonical-form cache: rename-isomorphic components (same canonical
// key, see ch.Canonicalize) synthesize once; later occurrences reuse
// the cached netlist with their own wire names substituted in.
// Components the canonicalizer rejects (verb channels) synthesize
// directly.
func (r *runner) synthOne(comp *ch.Program, sp *bm.Spec, mode techmap.Mode) (shipped, error) {
	canon, ok := ch.CanonicalizeProgram(comp)
	if !ok {
		e, err := r.synthesize(comp, sp, mode)
		if err != nil {
			return shipped{}, err
		}
		return shipped{nl: e.netlist, res: e.res, unit: e.unit, shape: "raw|" + comp.Name}, nil
	}
	key := mode.String() + "|" + canon.Key
	entry, hit, err := r.cache.Do(key, func() (*synthEntry, error) {
		// Controller-grain artifact tier (incremental resynthesis): an
		// unchanged canonical subtree loads its prior synthesis instead
		// of recomputing it. The lookup runs inside the single-flight
		// closure, so concurrent occurrences of one shape agree on a
		// single entry at any worker count.
		ctl := r.opt.Controllers
		var ctlKey string
		if ctl != nil {
			ctlKey = ControllerKey(mode, canon.Digest())
			if blob, ok := ctl.GetController(ctlKey); ok {
				e, err := decodeController(blob)
				if err == nil && len(e.wires) == len(canon.Wires) {
					r.met.ControllersReused.Add(1)
					return e, nil
				}
				// A blob that fails to decode, or whose wires cannot
				// rename onto this shape, is counted and resynthesized.
				r.met.ControllersCorrupt.Add(1)
			}
		}
		e, err := r.synthesize(comp, sp, mode)
		if err != nil {
			return nil, err
		}
		e.wires = canon.Wires
		if ctl != nil {
			r.met.ControllersResynthesized.Add(1)
			if blob, err := encodeController(e); err == nil {
				ctl.PutController(ctlKey, blob)
			}
		}
		return e, nil
	})
	if hit {
		r.met.CacheHits.Add(1)
	} else {
		r.met.CacheMisses.Add(1)
	}
	if err != nil {
		return shipped{}, err
	}
	sub := make(map[string]string, len(entry.wires))
	for i, w := range entry.wires {
		if w != canon.Wires[i] {
			sub[w] = canon.Wires[i]
		}
	}
	if len(sub) > 0 {
		// Carry the rename into techmap's derived helper nets, so the
		// spliced netlist is byte-identical to direct synthesis of this
		// component — regardless of which occurrence seeded the entry or
		// whether it came from the controller artifact cache.
		addDerivedRenames(sub, entry.netlist.NetNames)
	}
	nl := entry.netlist.Rename(comp.Name, sub)
	res := entry.res
	res.Name = comp.Name
	return shipped{nl: nl, res: res, unit: renameUnit(entry.unit, comp.Name, sub, nl), shape: key}, nil
}

// renameUnit renames a hazver unit onto a component's wires the way
// its netlist was renamed — variables, outputs and transition keys go
// through sub — and points it at nl, the renamed netlist. The
// transitions themselves index Vars, so they carry over unchanged. A
// hand-library unit stays without provenance.
func renameUnit(u hazver.Unit, name string, sub map[string]string, nl *gates.Netlist) hazver.Unit {
	if u.Netlist == nil {
		return hazver.Unit{Name: name}
	}
	out := u
	out.Name, out.Netlist = name, nl
	if len(sub) == 0 {
		return out
	}
	rn := func(s string) string {
		if t, ok := sub[s]; ok {
			return t
		}
		return s
	}
	out.Vars = make([]string, len(u.Vars))
	for i, v := range u.Vars {
		out.Vars[i] = rn(v)
	}
	out.Outputs = make([]string, len(u.Outputs))
	for i, o := range u.Outputs {
		out.Outputs[i] = rn(o)
	}
	out.Transitions = make(map[string][]hfmin.Transition, len(u.Transitions))
	for f, ts := range u.Transitions {
		out.Transitions[rn(f)] = ts
	}
	return out
}

// synthesis is one arm's controllers as shipped, in component order,
// with which of them are hand-library circuits, plus hazver's
// verification units: one per distinct canonical shape
// (rename-isomorphic components verify identically), each the shape's
// first occurrence.
type synthesis struct {
	mapped []*gates.Netlist
	ctrls  []ControllerResult
	hand   []bool
	units  []hazver.Unit
}

// synthesizeNetlist fans the components of a control netlist out as
// composite tasks (their hclib lookup, per-function minimization and
// map stages are the pool-admitted leaves), component i from its
// compiled spec specs[i], returning what they ship in component order
// with sequential first-error semantics.
func (r *runner) synthesizeNetlist(n *core.Netlist, specs []*bm.Spec, mode techmap.Mode) (*synthesis, error) {
	outs, err := parallel.MapAllCtx(r.ctx, len(n.Components), func(i int) (shipped, error) {
		return r.synthOne(n.Components[i], specs[i], mode)
	})
	if err != nil {
		return nil, err
	}
	s := &synthesis{
		mapped: make([]*gates.Netlist, len(outs)),
		ctrls:  make([]ControllerResult, len(outs)),
		hand:   make([]bool, len(outs)),
	}
	seen := map[string]bool{}
	for i, o := range outs {
		// A hand-library circuit's unit carries no netlist (see synthEntry).
		s.mapped[i], s.ctrls[i], s.hand[i] = o.nl, o.res, o.unit.Netlist == nil
		if !seen[o.shape] {
			seen[o.shape] = true
			s.units = append(s.units, o.unit)
		}
	}
	return s, nil
}

// CheckedArm is one arm synthesized once and passed through every
// checker gate: the control netlist the arm synthesized (clustered for
// opt), the bmlint gate's spec of each component and its audit, the
// mapped controllers, their reports and which of them are hand-library
// circuits in component order, the netlint report of the merged
// circuit, the hazver report of the netlists the synthesis shipped,
// and — for the opt arm — the clustering report.
type CheckedArm struct {
	Netlist     *core.Netlist
	Specs       []*bm.Spec
	Bmlint      []bmlint.Result
	Mapped      []*gates.Netlist
	Controllers []ControllerResult
	HandLibrary []bool
	Netlint     netlint.Result
	Hazver      hazver.Result
	Report      *core.Report
}

// checkedArm is the gated synthesis of one arm and the only synthesis
// of a netlist, shared by both arms of runDesign, the daemon's synth
// executor, the audit and every checker: the bmlint gate, which
// compiles every component once, synthesis of every controller from
// the spec the gate compiled for it, the netlint gate on the merged
// circuit, and the hazver gate on the shipped netlists. It returns the
// arm and a nil error on success; a failing gate's *GateError,
// unwrapped, together with the arm as far as it got (the results of
// every gate that ran, the failing one's included); and a nil arm for
// any other error — a compile or synthesis error, or cancellation.
// Non-error findings land on the metrics sink in gate order.
func (r *runner) checkedArm(design, arm string, n *core.Netlist, mode techmap.Mode) (c *CheckedArm, err error) {
	defer func() {
		var gate interface{ Findings() []Finding }
		if err != nil && !errors.As(err, &gate) {
			c = nil
		}
	}()
	c = &CheckedArm{Netlist: n}
	specs, results, err := r.bmlintGate(design, arm, n)
	c.Specs, c.Bmlint = specs, results
	if err != nil {
		return c, err
	}
	s, err := r.synthesizeNetlist(n, specs, mode)
	if err != nil {
		return c, err
	}
	c.Mapped, c.Controllers, c.HandLibrary = s.mapped, s.ctrls, s.hand
	if c.Netlint, err = NetlintGate(design, arm, s.mapped, r.opt.Lib, r.met); err != nil {
		return c, err
	}
	c.Hazver, err = r.hazverGate(design, arm, s.units)
	return c, err
}

// SynthesizeCheckedCtx runs one arm's gated synthesis the way the
// flow's runDesign does, for callers outside a flow run (the daemon's
// synth executor and every checker surface): the arm's preparation
// (clustering for opt, checkpointed to opt.Checkpoint as
// "<design>/cluster"), then bmlint, synthesis, netlint and hazver, with
// every controller synthesized once and the checkers verifying what
// that synthesis shipped. It is the one way to synthesize a netlist
// outside a flow run, so every spec that reaches synthesis has passed
// the bmlint gate. Its results follow checkedArm's contract: the arm
// on success, the arm as far as it got with a gate's *GateError, and a
// nil arm for anything else, clustering errors (unwrapped) and
// cancellation included.
func SynthesizeCheckedCtx(ctx context.Context, design, arm string, n *core.Netlist, opt *Options) (*CheckedArm, error) {
	r := newRunner(ctx, opt)
	n, rep, mode, err := r.prepare(design, arm, n)
	if err != nil {
		return nil, err
	}
	c, err := r.checkedArm(design, arm, n, mode)
	if c != nil {
		c.Report = rep
	}
	return c, err
}

// prepare readies a control netlist for one arm of the run: the unopt
// arm keeps it for area-shared mapping; the opt arm clusters it for
// speed-split mapping, cancelled with the run's context. A clustering
// run is one pool leaf: it probes its channels sequentially and waits
// for no other slot. It is the design's "cluster" checkpoint stage:
// restored from the run's sink when saved there, saved after computing
// otherwise. It is the flow's one clustering path for an arm.
func (r *runner) prepare(design, arm string, n *core.Netlist) (*core.Netlist, *core.Report, techmap.Mode, error) {
	if arm != "opt" {
		return n, nil, techmap.AreaShared, nil
	}
	ck := r.ckpt(design)
	if cn, rep, ok := ck.loadCluster(); ok {
		return cn, rep, techmap.SpeedSplit, nil
	}
	cl := r.opt.Cluster
	cl.Ctx = r.ctx
	var cn *core.Netlist
	var rep *core.Report
	err := r.pool.RunCtx(r.ctx, func() (err error) {
		start := time.Now()
		cn, rep, err = core.OptimizeOpt(n, cl)
		r.met.Timings.Observe("cluster", time.Since(start))
		return err
	})
	if err == nil {
		ck.saveCluster(cn, rep)
	}
	return cn, rep, techmap.SpeedSplit, err
}

// simulate runs one design arm: mapped controllers + datapath + bench.
// A whole simulation is one leaf unit of pool work.
func (r *runner) simulate(d *designs.Design, mapped []*gates.Netlist) (simTime, dpArea float64, events int64, desc string, err error) {
	err = r.pool.RunCtx(r.ctx, func() error {
		start := time.Now()
		defer func() { r.met.Timings.Observe("simulate", time.Since(start)) }()
		s := sim.New(r.opt.Lib)
		for _, nl := range mapped {
			s.AddNetlist(nl, nl.Name, nil)
		}
		b := dpath.NewBuilder(s)
		d.Datapath(b)
		bench := d.Bench(b)
		if err := s.Init(); err != nil {
			return err
		}
		bench.Start()
		for !bench.Done() {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			if err := s.Run(r.opt.TimeLimit, r.opt.EventLimit); err != nil {
				return fmt.Errorf("flow: %s: %w", d.Name, err)
			}
			if !bench.Done() && s.Quiet() {
				return fmt.Errorf("flow: %s: deadlock at %.2f ns (benchmark incomplete)", d.Name, s.Time)
			}
		}
		if err := bench.Validate(); err != nil {
			return fmt.Errorf("flow: %s: functional check failed: %w", d.Name, err)
		}
		simTime, dpArea, events, desc = s.Time, b.Area, s.Events, bench.Description
		return nil
	})
	return
}

// runDesign executes both arms of the flow for one design, side by
// side. The arms are composite tasks (plain goroutines); only their
// leaves — individual controller syntheses, the clustering run and the
// benchmark simulations — occupy pool slots, so nesting cannot
// deadlock even with a single worker.
func (r *runner) runDesign(d *designs.Design) (*DesignResult, error) {
	// Pre-synthesis gate: error findings abort before any synthesis
	// work starts; warnings and advisories land on the metrics sink.
	if err := LintNetlist(d.Control(), d.Name, r.met); err != nil {
		return nil, err
	}
	res := &DesignResult{Design: d.Name}
	ck := r.ckpt(d.Name)

	// Unoptimized arm: the original component netlist with the
	// baseline (hand-library-quality) mapping.
	unopt := func() error {
		var cp armCheckpoint
		if ck.load(StageUnopt, &cp) {
			res.Unopt, res.Bench = cp.Arm, cp.Bench
			return nil
		}
		c, err := r.checkedArm(d.Name, "unopt", d.Control(), techmap.AreaShared)
		if err != nil {
			return fmt.Errorf("unoptimized arm: %w", err)
		}
		res.Unopt.Controllers, res.Unopt.Static = c.Controllers, c.Netlint.Stats
		for _, ctl := range c.Controllers {
			res.Unopt.ControlArea += ctl.Area
		}
		t, dpArea, events, benchDesc, err := r.simulate(d, c.Mapped)
		if err != nil {
			return fmt.Errorf("unoptimized arm: %w", err)
		}
		res.Unopt.BenchTime, res.Unopt.DatapathArea, res.Unopt.Events = t, dpArea, events
		res.Bench = benchDesc
		ck.save(StageUnopt, armCheckpoint{Arm: res.Unopt, Bench: res.Bench})
		return nil
	}

	// Optimized arm: clustering, then speed-mode split-mapped
	// synthesis (the paper's new back-end).
	opt := func() error {
		var cp armCheckpoint
		if ck.load(StageOpt, &cp) {
			res.Opt, res.Report = cp.Arm, cp.Report
			return nil
		}
		optNetlist, report, mode, err := r.prepare(d.Name, "opt", d.Control())
		if err != nil {
			return fmt.Errorf("clustering: %w", err)
		}
		res.Report = report
		c, err := r.checkedArm(d.Name, "opt", optNetlist, mode)
		if err != nil {
			return fmt.Errorf("optimized arm: %w", err)
		}
		res.Opt.Controllers, res.Opt.Static = c.Controllers, c.Netlint.Stats
		for _, ctl := range c.Controllers {
			res.Opt.ControlArea += ctl.Area
		}
		t, dpArea, events, _, err := r.simulate(d, c.Mapped)
		if err != nil {
			return fmt.Errorf("optimized arm: %w", err)
		}
		res.Opt.BenchTime, res.Opt.DatapathArea, res.Opt.Events = t, dpArea, events
		ck.save(StageOpt, armCheckpoint{Arm: res.Opt, Report: res.Report})
		return nil
	}

	if err := parallel.All(unopt, opt); err != nil {
		return nil, err
	}
	return res, nil
}

// RunDesign executes both arms of the flow for one design.
func RunDesign(d *designs.Design, opt *Options) (*DesignResult, error) {
	return RunDesignCtx(context.Background(), d, opt)
}

// RunDesignCtx is RunDesign with cancellation. Cancelling ctx stops
// the run at the next leaf boundary: syntheses, clustering runs and
// simulations still waiting for a worker slot are abandoned, a running
// clustering stops before its next legality probe, running simulations
// stop at their next scheduler quantum, and the call returns the
// context's error. No pool goroutines outlive the call.
func RunDesignCtx(ctx context.Context, d *designs.Design, opt *Options) (*DesignResult, error) {
	return newRunner(ctx, opt).runDesign(d)
}

// RunAll executes the flow for every Table 3 design. Designs run
// concurrently and share one synthesis cache, so a controller shape
// appearing in several designs synthesizes once.
func RunAll(opt *Options) ([]*DesignResult, error) {
	return RunAllCtx(context.Background(), opt)
}

// RunAllCtx is RunAll with cancellation (see RunDesignCtx).
func RunAllCtx(ctx context.Context, opt *Options) ([]*DesignResult, error) {
	r := newRunner(ctx, opt)
	all := designs.All()
	out := make([]*DesignResult, len(all))
	fns := make([]func() error, len(all))
	for i, d := range all {
		i, d := i, d
		fns[i] = func() error {
			res, err := r.runDesign(d)
			if err != nil {
				return fmt.Errorf("flow: %s: %w", d.Name, err)
			}
			out[i] = res
			return nil
		}
	}
	if err := parallel.All(fns...); err != nil {
		return nil, err
	}
	return out, nil
}

// Table3 formats results in the layout of the paper's Table 3.
func Table3(results []*DesignResult) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Experimental Results\n")
	sb.WriteString(fmt.Sprintf("%-20s %12s %12s %12s %14s %14s %10s\n",
		"", "Speed (ns)", "", "", "Area (um2)", "", ""))
	sb.WriteString(fmt.Sprintf("%-20s %12s %12s %12s %14s %14s %10s\n",
		"Design", "Unoptimized", "Optimized", "Improvement", "Unoptimized", "Optimized", "Overhead"))
	for _, r := range results {
		sb.WriteString(fmt.Sprintf("%-20s %12.2f %12.2f %11.2f%% %14.0f %14.0f %9.2f%%\n",
			r.Design, r.Unopt.BenchTime, r.Opt.BenchTime, r.SpeedImprovement(),
			r.Unopt.TotalArea(), r.Opt.TotalArea(), r.AreaOverhead()))
	}
	return sb.String()
}

// Fig2Summary reports the control-collapse statistics of Fig 2 for one
// design: components and internal channels before and after clustering.
func Fig2Summary(d *designs.Design) (before, after core.Stats, rep *core.Report, err error) {
	n := d.Control()
	before, err = n.Stats()
	if err != nil {
		return
	}
	optimized, rep, err := core.Optimize(n)
	if err != nil {
		return
	}
	after, err = optimized.Stats()
	return
}
