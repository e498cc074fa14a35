// Package hazver implements static gate-level hazard verification of
// mapped burst-mode controllers — the fourth and final tier of the
// checker stack (chlint → bmlint → netlint → hazver), and the one that
// closes the gap between the minimizer's hazard-freedom proof over
// two-level covers (hfmin.CheckCover) and the multi-level netlist the
// back-end actually emits.
//
// The check is Eichelberger's ternary-simulation argument specialized
// to fundamental mode: for every specified burst of every controller
// function (outputs and y* state bits), evaluate the controller's
// mapped netlist twice over {0,1,X} — first with the changing burst
// inputs at X and every other variable at its start value, then at
// the burst end point. Under the same feedback cuts the compiled evaluator and
// netlint already honor (primary outputs and y* nets forced), the
// mapped network is combinational and the ternary evaluation is
// exact: a function whose specification holds it stable across the
// burst has a static hazard — some input arrival order glitches it —
// if and only if the X-pass evaluates to X (HZ001). A function that
// transitions gets the analogous multiple-input-change check: the
// specification says it holds its start value until the final burst
// input arrives, so for every changing input v, holding v at its
// start value with the rest at X must still evaluate to the binary
// start value (HZ002 when X). Burst endpoints are also checked
// against the specified function values (HZ003), subsuming
// techmap.CheckMapped's sampling on exactly the points fundamental
// mode visits. Residual single-input-change dynamic hazards on the
// final transition itself are outside the ternary model; DESIGN.md
// §16 gives the soundness argument and this boundary.
//
// Each unit is verified on its own netlist, the one the flow ships:
// one gates.Compile per unit, and batches of up to 64 passes of that
// unit on gates.TernaryEval, which packs them into dual-rail lane
// words. That evaluator is the only one; a unit that does not compile
// is an HZ000 error, not a second evaluation path. The interpreted
// ternary settle (gates.SettleTernary) is the reference the package
// tests hold it to. Functions and nets keep the names gates.Merge
// gives them in the arm's merged circuit (gates.NameParts), so a
// report reads the same as the netlint report of that circuit.
// Findings are HZxxx diagnostics on the shared
// internal/diag framework: HZ0xx hazards/mismatches (errors), HZ1xx
// verification-coverage warnings, HZ200 the static report with
// per-function worst-case X-propagation depth.
package hazver

import (
	"context"
	"fmt"
	"strings"

	"balsabm/internal/cell"
	"balsabm/internal/diag"
	"balsabm/internal/gates"
	"balsabm/internal/hfmin"
	"balsabm/internal/minimalist"
	"balsabm/internal/parallel"
)

// Severity classifies a diagnostic; see internal/diag.
type Severity = diag.Severity

// Severity levels, re-exported from internal/diag. Errors mark real
// hazards or functional divergence — the mapped circuit can glitch or
// compute the wrong value on a specified burst — and abort the flow's
// post-mapping gate. Warnings mark verification-coverage gaps. Infos
// are advisory (the static report).
const (
	SevError   = diag.SevError
	SevWarning = diag.SevWarning
	SevInfo    = diag.SevInfo
)

// Loc pins a diagnostic to a function (an output or y* state bit of
// one controller, named as in the merged netlist) and optionally one
// of its specified bursts.
type Loc struct {
	Fn    string // merged-netlist function name ("pop_a", "pop_seq1.y0")
	Tr    int    // burst ordinal within the function, -1 when function-level
	Burst string // rendered burst, e.g. "req+ ack-"
	FnOrd int    // deterministic function ordinal across the audit (sort key)
}

// NoLoc is the circuit-level location.
var NoLoc = Loc{Tr: -1, FnOrd: -1}

// String renders the location: `fn "pop_a" burst 2 (req+ ack-)`.
func (l Loc) String() string {
	if l.Fn == "" {
		return ""
	}
	if l.Tr < 0 {
		return fmt.Sprintf("fn %q", l.Fn)
	}
	return fmt.Sprintf("fn %q burst %d (%s)", l.Fn, l.Tr, l.Burst)
}

// Fragment implements diag.Loc.
func (l Loc) Fragment() (string, bool) { return l.String(), false }

// Key implements diag.Loc: diagnostics sort by function, then burst.
func (l Loc) Key() (int, int) { return l.FnOrd, l.Tr }

// Diag is one diagnostic; see internal/diag.
type Diag = diag.Diag[Loc]

// Reporter collects diagnostics during an audit.
type Reporter = diag.Reporter[Loc]

// Codes maps every stable diagnostic code to its one-line meaning.
// Codes are append-only: a released code never changes meaning, so
// suppressions, CI greps and the /metrics code labels stay valid.
var Codes = map[string]string{
	"HZ000": "ternary evaluation failed; the burst could not be verified",
	"HZ001": "static hazard: a specified-stable function may glitch during the burst",
	"HZ002": "dynamic hazard: a transitioning function may glitch before its final burst input",
	"HZ003": "functional mismatch between mapped logic and specification at a burst endpoint",
	"HZ100": "function net missing or undriven; its bursts cannot be verified",
	"HZ200": "static hazard-verification report",
}

// Unit is one controller's worth of verification input: the burst
// provenance the minimizer proved hazard-free (variables in
// hfmin.Transition order, specified transitions per function) and the
// mapped netlist that must honor it. Functions are the spec outputs
// in order followed by y0..y(StateBits-1); Transitions is keyed by
// those names. A Unit with a nil Netlist is counted as skipped — a
// hand-library circuit with no burst provenance to check against.
type Unit struct {
	Name        string
	Vars        []string // inputs, then fed-back outputs, then y* bits
	Outputs     []string // spec output order
	StateBits   int
	Transitions map[string][]hfmin.Transition
	Netlist     *gates.Netlist
}

// ControllerUnit is the Unit of a synthesized controller mapped to nl:
// the bursts minimalist proved its covers hazard-free on, to be checked
// on the netlist that implements them.
func ControllerUnit(name string, ctrl *minimalist.Controller, nl *gates.Netlist) Unit {
	return Unit{
		Name:        name,
		Vars:        ctrl.Vars,
		Outputs:     ctrl.Spec.Outputs,
		StateBits:   ctrl.StateBits,
		Transitions: ctrl.Transitions,
		Netlist:     nl,
	}
}

// Options tunes an audit.
type Options struct {
	Pool *parallel.Pool  // nil uses the process-wide default pool
	Ctx  context.Context // nil uses context.Background()
}

// Stats is the static report for one audit.
type Stats struct {
	Units      int  // verifiable controllers
	Skipped    int  // hand-library circuits without burst provenance
	Functions  int  // outputs + y* bits across all units
	Bursts     int  // specified transitions verified
	Unverified int  // transitions skipped (undriven/missing function nets)
	Passes     int  // ternary evaluation passes
	MaxXDepth  int  // worst X-propagation depth reaching any function's driver
	Compiled   bool // every unit compiled; false after an HZ000 compile failure
}

// String renders the one-line report used by the HZ200 info
// diagnostic and the flow's -stats output.
func (s Stats) String() string {
	path := "compiled"
	if !s.Compiled {
		path = "a unit failed to compile"
	}
	skip := ""
	if s.Skipped > 0 {
		skip = fmt.Sprintf(" (+%d hand-library skipped)", s.Skipped)
	}
	unv := ""
	if s.Unverified > 0 {
		unv = fmt.Sprintf(", %d unverified", s.Unverified)
	}
	return fmt.Sprintf("%d units%s, %d functions, %d bursts%s, %d ternary passes, worst X-depth %d, %s",
		s.Units, skip, s.Functions, s.Bursts, unv, s.Passes, s.MaxXDepth, path)
}

// Result is one full audit: the audited arm's name, its diagnostics,
// and the static report.
type Result struct {
	Name  string
	Diags []Diag
	Stats Stats
}

// Count tallies diagnostics by severity.
func Count(ds []Diag) (errors, warnings, infos int) { return diag.Count(ds) }

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(ds []Diag) bool { return diag.HasErrors(ds) }

// Format renders diagnostics vet-style, one per line (plus note
// lines), prefixed with the circuit name when non-empty.
func Format(ds []Diag, circuit string) string { return diag.Format(ds, circuit) }

// passKind is one ternary evaluation obligation for a transition.
type passKind uint8

const (
	passStart  passKind = iota // binary start point must equal From
	passEnd                    // binary end point must equal To
	passStatic                 // changed inputs at X must stay binary From
	passSub                    // one changed input held, rest at X: binary From
)

// tpass is one scheduled ternary pass: which function, which of its
// transitions, and which obligation.
type tpass struct {
	fn    int32
	tr    int32
	kind  passKind
	vhold int32 // passSub: var index held at its start value
}

// unitPlan is one verifiable unit resolved against its own netlist.
type unitPlan struct {
	*Unit
	names  gates.PartNames // the nets' names in the arm's merged circuit
	vars   []int           // net of each of Vars, -1 when the netlist lacks it
	forced map[int]bool    // outputs and y* nets: the fundamental-mode cut
	drv    []int
	prog   *gates.Program // nil when the netlist does not compile
}

// fnInfo is one function to verify: a spec output or y* bit of one
// unit, resolved to its net in that unit's netlist.
type fnInfo struct {
	unit  int    // index into auditor.units
	name  string // display name, as in the merged circuit
	net   int    // the unit's net id, -1 when the netlist lacks the net
	trs   []hfmin.Transition
	burst int // bursts verified
	depth int // worst X-depth observed at the driver
}

// batch is a run of at most 64 passes, all of one unit.
type batch struct{ lo, hi int }

// Audit statically verifies every specified burst of every unit
// against the unit's own mapped netlist and returns all findings plus
// the static report. The result is deterministic — independent of
// worker count and pool scheduling. An audit whose opt.Ctx ends before
// it finishes returns an incomplete result: passes that never ran
// report nothing, yet Stats still counts every scheduled pass. Callers
// check opt.Ctx.Err() after the call and discard such a result.
func Audit(name string, units []Unit, lib *cell.Library, opt Options) Result {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	a := newAuditor(name, units, lib)
	return a.result(a.run(ctx, opt.Pool))
}

// auditor is one audit's plan — the units, their functions and the
// scheduled passes — shared read-only by the parallel batch workers,
// plus the report the plan already produced.
type auditor struct {
	units   []unitPlan
	fns     []fnInfo
	passes  []tpass
	batches []batch
	rep     *Reporter
	res     Result
}

// newAuditor resolves every unit's functions on its netlist, compiles
// the netlist under the forced cut — all outputs and y* bits, exactly
// the fundamental-mode cut netlint honors — and schedules the ternary
// passes, function by function so a batch's lanes for one function
// are contiguous. A unit that does not compile gets an HZ000 error and
// no passes.
func newAuditor(name string, units []Unit, lib *cell.Library) *auditor {
	a := &auditor{rep: &Reporter{}, res: Result{Name: name, Stats: Stats{Compiled: true}}}
	var parts []*gates.Netlist
	for i := range units {
		if units[i].Netlist == nil {
			a.res.Stats.Skipped++
			continue
		}
		parts = append(parts, units[i].Netlist)
		a.units = append(a.units, unitPlan{Unit: &units[i]})
	}
	a.res.Stats.Units = len(a.units)
	names := gates.NameParts(parts)
	for ui := range a.units {
		u := &a.units[ui]
		nl := u.Netlist
		u.names = names[ui]
		u.vars = make([]int, len(u.Vars))
		for j, v := range u.Vars {
			u.vars[j] = -1
			if nl.HasNet(v) {
				u.vars[j] = nl.Net(v)
			}
		}
		u.forced = map[int]bool{}
		first := len(a.fns)
		addFn := func(key string) {
			fi := fnInfo{unit: ui, name: key, net: -1, trs: u.Transitions[key], depth: -1}
			if nl.HasNet(key) {
				fi.net = nl.Net(key)
				fi.name = u.names.Name(fi.net)
				u.forced[fi.net] = true
			}
			a.fns = append(a.fns, fi)
		}
		for _, out := range u.Outputs {
			addFn(out)
		}
		for s := 0; s < u.StateBits; s++ {
			addFn(fmt.Sprintf("y%d", s))
		}
		u.drv = nl.DriverIndex()
		prog, err := gates.Compile(nl, lib, u.forced)
		if err != nil {
			unv := 0
			for _, fn := range a.fns[first:] {
				unv += len(fn.trs)
			}
			a.rep.Errorf(NoLoc, "HZ000", "unit %q does not compile (%v); its %d bursts are not verified", u.Name, err, unv)
			a.res.Stats.Unverified += unv
			a.res.Stats.Compiled = false
			continue
		}
		u.prog = prog
	}
	a.schedule()
	a.res.Stats.Functions = len(a.fns)
	a.res.Stats.Passes = len(a.passes)
	for lo := 0; lo < len(a.passes); {
		unit := a.fns[a.passes[lo].fn].unit
		hi := lo + 1
		for hi < len(a.passes) && hi-lo < lanes && a.fns[a.passes[hi].fn].unit == unit {
			hi++
		}
		a.batches = append(a.batches, batch{lo, hi})
		lo = hi
	}
	return a
}

// schedule adds the passes of every function of a compiled unit, in
// function order, and reports the undriven ones as HZ100. A first walk
// counts the passes, so a.passes is sized once.
func (a *auditor) schedule() {
	n := 0
	for fi := range a.fns {
		if a.verifiable(fi) {
			for ti := range a.fns[fi].trs {
				n += passCount(&a.fns[fi].trs[ti])
			}
		}
	}
	a.passes = make([]tpass, 0, n)
	for fi := range a.fns {
		fn := &a.fns[fi]
		if a.units[fn.unit].prog == nil || len(fn.trs) == 0 {
			continue
		}
		if !a.verifiable(fi) {
			a.rep.Warnf(Loc{Fn: fn.name, Tr: -1, FnOrd: fi}, "HZ100",
				"function net %q missing or undriven; %d bursts not verified", fn.name, len(fn.trs))
			a.res.Stats.Unverified += len(fn.trs)
			continue
		}
		for ti := range fn.trs {
			t := &fn.trs[ti]
			a.passes = append(a.passes,
				tpass{fn: int32(fi), tr: int32(ti), kind: passStart},
				tpass{fn: int32(fi), tr: int32(ti), kind: passEnd})
			ch := changedVars(t)
			if t.From == t.To {
				if ch > 0 {
					a.passes = append(a.passes, tpass{fn: int32(fi), tr: int32(ti), kind: passStatic})
				}
			} else if ch >= 2 {
				for v := range t.Start {
					if t.Start[v] != t.End[v] {
						a.passes = append(a.passes, tpass{fn: int32(fi), tr: int32(ti), kind: passSub, vhold: int32(v)})
					}
				}
			}
			fn.burst++
			a.res.Stats.Bursts++
		}
	}
}

// verifiable reports whether function fi gets passes: its unit
// compiled, and its net exists and has a driver.
func (a *auditor) verifiable(fi int) bool {
	fn := &a.fns[fi]
	u := &a.units[fn.unit]
	return u.prog != nil && fn.net >= 0 && u.drv[fn.net] >= 0
}

// passCount is the number of passes scheduled for t: its start and end
// points, plus the static pass of a static burst that changes some
// variable, or one sub-cube pass per changed variable of a transition
// that changes at least two.
func passCount(t *hfmin.Transition) int {
	ch := changedVars(t)
	switch {
	case t.From == t.To && ch > 0:
		return 3
	case t.From != t.To && ch >= 2:
		return 2 + ch
	}
	return 2
}

// changedVars counts the variables that differ between t's start and
// end points.
func changedVars(t *hfmin.Transition) int {
	n := 0
	for v := range t.Start {
		if t.Start[v] != t.End[v] {
			n++
		}
	}
	return n
}

// result folds the batch outputs, in group order, into the report:
// the findings, the per-function X depths and the HZ200 static report
// with its per-function depth table.
func (a *auditor) result(outs []batchOut) Result {
	for _, o := range outs {
		for _, d := range o.diags {
			a.rep.Report(d)
		}
		for fi, d := range o.depth {
			if int(d) > a.fns[fi].depth {
				a.fns[fi].depth = int(d)
			}
		}
	}
	res := a.res
	for fi := range a.fns {
		if d := a.fns[fi].depth; d > res.Stats.MaxXDepth {
			res.Stats.MaxXDepth = d
		}
	}
	a.rep.Infof(NoLoc, "HZ200", "static hazard report: %s", res.Stats)
	for fi := range a.fns {
		fn := &a.fns[fi]
		if fn.burst == 0 && fn.depth < 0 {
			continue
		}
		a.rep.Note("%s: %d bursts, worst X-depth %d", fn.name, fn.burst, max(fn.depth, 0))
	}
	if res.Stats.Skipped > 0 {
		a.rep.Note("%d hand-library circuits carry no burst provenance and are verified dynamically (simulation), not statically", res.Stats.Skipped)
	}
	res.Diags = a.rep.Diags()
	diag.Sort(res.Diags)
	return res
}

// batchGroup batches per worker leaf: each leaf walks a contiguous
// slice of batches with one evaluator per unit it touches, so output
// order is deterministic regardless of scheduling.
const (
	lanes      = 64
	batchGroup = 8
)

type batchOut struct {
	diags []Diag
	depth []int32 // per fn, -1 untouched
}

func (a *auditor) newOut() batchOut {
	out := batchOut{depth: make([]int32, len(a.fns))}
	for i := range out.depth {
		out.depth[i] = -1
	}
	return out
}

// run evaluates every scheduled pass and returns per-group outputs in
// group order. Worker errors are impossible by construction — every
// failure becomes a diagnostic — so the MapCtx error is only context
// cancellation, which yields zero-valued outputs and a truncated
// (but still deterministic-prefix) diagnostic set.
func (a *auditor) run(ctx context.Context, pool *parallel.Pool) []batchOut {
	groups := (len(a.batches) + batchGroup - 1) / batchGroup
	if groups == 0 {
		return nil
	}
	outs, _ := parallel.MapCtx(ctx, pool, groups, func(g int) (batchOut, error) {
		out := a.newOut()
		evs := make([]*gates.TernaryEval, len(a.units))
		for _, b := range a.batches[g*batchGroup : min((g+1)*batchGroup, len(a.batches))] {
			ui := a.fns[a.passes[b.lo].fn].unit
			if evs[ui] == nil {
				evs[ui] = a.units[ui].prog.NewTernaryEval()
			}
			a.runBatch(evs[ui], b, &out)
		}
		return out, nil
	})
	return outs
}

// passValue is variable j's ternary value in pass p of transition t:
// its start value at the start point and its end value at the end
// point. The static pass puts every variable the burst changes at X,
// and a sub-cube pass does the same except for the one changed
// variable it holds at its start value.
func passValue(p *tpass, t *hfmin.Transition, j int) uint8 {
	v := t.Start[j]
	switch p.kind {
	case passEnd:
		v = t.End[j]
	case passStatic, passSub:
		if v != t.End[j] && (p.kind == passStatic || int(p.vhold) != j) {
			return gates.TX
		}
	}
	if v {
		return gates.T1
	}
	return gates.T0
}

// want returns the binary value the specification requires for one
// pass: From at the start point and everywhere on the transition
// except the end point, To at the end point.
func (a *auditor) want(p *tpass) bool {
	t := &a.fns[p.fn].trs[p.tr]
	if p.kind == passEnd {
		return t.To
	}
	return t.From
}

// runBatch evaluates one batch bit-parallel on its unit's compiled
// dual-rail evaluator and judges each lane.
func (a *auditor) runBatch(ev *gates.TernaryEval, b batch, out *batchOut) {
	u := &a.units[a.fns[a.passes[b.lo].fn].unit]
	ev.Reset()
	// The tied-low net is a source at 0, as netlint and the Verilog
	// treat it; Reset left it at X.
	if c := u.Netlist.Const0; c >= 0 {
		for ln := uint(0); ln < lanes; ln++ {
			ev.Assign(c, ln, gates.T0)
		}
	}
	a.assign(ev, b)
	ev.Run()
	// Judge contiguous runs of lanes that share a function, reading
	// the driver rails once per run.
	for pi := b.lo; pi < b.hi; {
		fi := a.passes[pi].fn
		end := pi
		var mask uint64
		for end < b.hi && a.passes[end].fn == fi {
			mask |= 1 << uint(end-b.lo)
			end++
		}
		fn := &a.fns[fi]
		dhi, dlo, _ := ev.Driver(fn.net)
		for p := pi; p < end; p++ {
			ln := uint(p - b.lo)
			v := gates.T0
			switch {
			case dhi>>ln&1 != 0 && dlo>>ln&1 != 0:
				v = gates.TX
			case dhi>>ln&1 != 0:
				v = gates.T1
			}
			a.judge(&a.passes[p], v, func() []int {
				return u.traceX(fn.net, func(n int) uint8 { return ev.At(n, ln) })
			}, out)
		}
		if d := ev.DriverXDepth(fn.net, mask); int32(d) > out.depth[fi] {
			out.depth[fi] = int32(d)
		}
		pi = end
	}
}

// assign gives each lane of batch b its pass's variable values,
// straight from the transition's start and end points.
func (a *auditor) assign(ev *gates.TernaryEval, b batch) {
	u := &a.units[a.fns[a.passes[b.lo].fn].unit]
	for pi := b.lo; pi < b.hi; pi++ {
		p := &a.passes[pi]
		t := &a.fns[p.fn].trs[p.tr]
		ln := uint(pi - b.lo)
		for j, net := range u.vars {
			if net >= 0 {
				ev.Assign(net, ln, passValue(p, t, j))
			}
		}
	}
}

// loc builds the diagnostic location of a pass.
func (a *auditor) loc(p *tpass) Loc {
	fn := &a.fns[p.fn]
	t := &fn.trs[p.tr]
	return Loc{Fn: fn.name, Tr: int(p.tr), Burst: renderBurst(a.units[fn.unit].Vars, t), FnOrd: int(p.fn)}
}

// renderBurst shows a transition as its changing variables with
// direction: "req+ ack-". Static transitions with no changing
// variable render as "steady".
func renderBurst(vars []string, t *hfmin.Transition) string {
	var b strings.Builder
	for _, v := range t.Changed() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		name := fmt.Sprintf("v%d", v)
		if v < len(vars) {
			name = vars[v]
		}
		b.WriteString(name)
		if t.End[v] {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "steady"
	}
	return b.String()
}

// judge turns one pass's ternary verdict into diagnostics. culprit is
// evaluated lazily — only when a hazard is being reported — and
// returns the X chain from the function's driver toward its sources.
func (a *auditor) judge(p *tpass, v uint8, culprit func() []int, out *batchOut) {
	want := gates.T0
	if a.want(p) {
		want = gates.T1
	}
	if v == want {
		return
	}
	fn := &a.fns[p.fn]
	u := &a.units[fn.unit]
	switch p.kind {
	case passStart, passEnd:
		point := "start"
		if p.kind == passEnd {
			point = "end"
		}
		out.diags = append(out.diags, Diag{
			Loc: a.loc(p), Severity: SevError, Code: "HZ003",
			Message: fmt.Sprintf("mapped logic evaluates to %s at the burst %s point; specification requires %s",
				gates.TernString(v), point, gates.TernString(want)),
		})
	case passStatic:
		if v != gates.TX {
			return // wrong binary value surfaces as HZ003 at the endpoints
		}
		chain := culprit()
		d := Diag{
			Loc: a.loc(p), Severity: SevError, Code: "HZ001",
			Message: fmt.Sprintf("static hazard: function must hold %s across the burst but evaluates to X%s",
				gates.TernString(want), u.throughNet(chain)),
		}
		u.notePath(&d, chain)
		out.diags = append(out.diags, d)
	default: // passSub
		if v != gates.TX {
			return // wrong binary value surfaces as HZ003 at the start point
		}
		held := fmt.Sprintf("v%d", p.vhold)
		if int(p.vhold) < len(u.Vars) {
			held = u.Vars[p.vhold]
		}
		chain := culprit()
		d := Diag{
			Loc: a.loc(p), Severity: SevError, Code: "HZ002",
			Message: fmt.Sprintf("dynamic hazard: with %q still at its start value the function must hold %s but evaluates to X%s",
				held, gates.TernString(want), u.throughNet(chain)),
		}
		u.notePath(&d, chain)
		out.diags = append(out.diags, d)
	}
}

// throughNet names the offending net — the X-valued gate output
// closest to the function's driver — for the one-line message.
func (u *unitPlan) throughNet(chain []int) string {
	if len(chain) == 0 {
		return " (X enters through the function's own feedback)"
	}
	return fmt.Sprintf(" (X enters through net %q)", u.names.Name(chain[0]))
}

// notePath attaches the full X chain as a note when it is longer than
// the single net the message names.
func (u *unitPlan) notePath(d *Diag, chain []int) {
	if len(chain) < 2 {
		return
	}
	names := make([]string, len(chain))
	for i, n := range chain {
		names[i] = u.names.Name(n)
	}
	d.Notes = append(d.Notes, fmt.Sprintf("X path to the function: %s", strings.Join(names, " <- ")))
}

// traceX walks the X chain from a forced net's driver toward its
// sources: at each gate it descends into an X-valued input,
// preferring one that is itself gate-driven (deeper in the cone), and
// returns the visited nets in driver-to-source order. An empty chain
// means the only X feeding the driver is the forced net's own
// feedback value.
func (u *unitPlan) traceX(net int, at func(int) uint8) []int {
	var chain []int
	seen := map[int]bool{net: true}
	cur := net
	for {
		di := u.drv[cur]
		if di < 0 {
			return chain
		}
		next := -1
		for _, in := range u.Netlist.Instances[di].Inputs {
			if seen[in] || at(in) != gates.TX {
				continue
			}
			if next < 0 {
				next = in
			}
			if u.drv[in] >= 0 && !u.forced[in] {
				next = in
				break
			}
		}
		if next < 0 {
			return chain
		}
		seen[next] = true
		chain = append(chain, next)
		if u.drv[next] < 0 || u.forced[next] {
			return chain
		}
		cur = next
	}
}
