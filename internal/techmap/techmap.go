// Package techmap turns synthesized two-level controllers into mapped
// gate netlists, standing in for the paper's Synopsys Design Compiler
// step (Section 5), in two modes:
//
//   - SpeedSplit reproduces the paper's optimized-controller flow: each
//     output's hazard-free cover becomes a NAND-NAND structure; the two
//     logic levels are kept in separate "modules" and mapped separately
//     (the paper's three-Verilog-module scheme), which deliberately
//     forgoes cross-level merging — one of the two area-overhead
//     sources the paper identifies.
//
//   - AreaShared stands in for Balsa's hand-optimized component
//     circuits (the unoptimized baseline): product terms are shared
//     across outputs, and a peephole pass extracts Muller C-elements
//     from majority-with-feedback covers — recovering, e.g., the
//     textbook single-C-element passivator.
//
// All transformations are from the hazard-non-increasing set
// (DeMorgan, associativity, tree regrouping — Kung '92); CheckMapped
// verifies the mapped logic is functionally identical to the
// hazard-free covers, which together implies the mapped controllers
// remain hazard-free (the paper's Section 5 argument).
package techmap

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/logic"
	"balsabm/internal/minimalist"
	"balsabm/internal/parallel"
)

// Mode selects the mapping style.
type Mode int

const (
	SpeedSplit Mode = iota
	AreaShared
)

func (m Mode) String() string {
	if m == SpeedSplit {
		return "speed-split"
	}
	return "area-shared"
}

// mapper carries shared state while building one controller netlist.
type mapper struct {
	nl   *gates.Netlist
	lib  *cell.Library
	ctrl *minimalist.Controller
	inv  map[int]int // net -> inverted net
}

// MapController builds a mapped netlist for a synthesized controller.
// Primary inputs are the spec's input signals; primary outputs are the
// spec's output signals. State bits become internal feedback nets.
func MapController(ctrl *minimalist.Controller, mode Mode, lib *cell.Library) (*gates.Netlist, error) {
	nl := gates.New(ctrl.Spec.Name)
	m := &mapper{nl: nl, lib: lib, ctrl: ctrl, inv: map[int]int{}}
	for _, in := range ctrl.Inputs {
		nl.Inputs = append(nl.Inputs, nl.Net(in))
	}
	for _, out := range ctrl.Spec.Outputs {
		nl.Outputs = append(nl.Outputs, nl.Net(out))
	}
	for i := 0; i < ctrl.StateBits; i++ {
		nl.Net(fmt.Sprintf("y%d", i))
	}
	var err error
	switch mode {
	case SpeedSplit:
		err = m.buildSpeedSplit()
	case AreaShared:
		err = m.buildAreaShared()
	default:
		err = fmt.Errorf("techmap: unknown mode %d", mode)
	}
	if err != nil {
		return nil, fmt.Errorf("techmap: %s: %w", ctrl.Spec.Name, err)
	}
	return nl, nil
}

// literal returns the net carrying the (possibly inverted) variable.
func (m *mapper) literal(v int, val logic.Lit, module int) int {
	base := m.nl.Net(m.ctrl.Vars[v])
	if val == logic.One {
		return base
	}
	if n, ok := m.inv[base]; ok {
		return n
	}
	n := m.nl.Fresh(m.ctrl.Vars[v] + "_n")
	m.nl.AddInstance("INV", []int{base}, n, module)
	m.inv[base] = n
	return n
}

// reduceTree builds a balanced tree of k-input cells (k up to 4) of the
// given AND-like family over nets, returning the single root net driven
// by rootCell (e.g. "NAND") while inner groups use innerCell ("AND").
func (m *mapper) reduceTree(nets []int, innerPrefix, rootPrefix string, module int, outNet int) {
	work := append([]int(nil), nets...)
	for len(work) > 4 {
		var next []int
		for i := 0; i < len(work); i += 4 {
			j := i + 4
			if j > len(work) {
				j = len(work)
			}
			group := work[i:j]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			t := m.nl.Fresh("t")
			m.nl.AddInstance(fmt.Sprintf("%s%d", innerPrefix, len(group)), group, t, module)
			next = append(next, t)
		}
		work = next
	}
	if len(work) == 1 {
		// Root of arity 1: INV for NAND-family roots, BUF for OR/AND.
		if rootPrefix == "NAND" || rootPrefix == "NOR" {
			m.nl.AddInstance("INV", work, outNet, module)
		} else {
			m.nl.AddInstance("BUF", work, outNet, module)
		}
		return
	}
	m.nl.AddInstance(fmt.Sprintf("%s%d", rootPrefix, len(work)), work, outNet, module)
}

// functionNames lists outputs then state bits, with their covers.
func (m *mapper) functions() []struct {
	name  string
	cover logic.Cover
} {
	out := make([]struct {
		name  string
		cover logic.Cover
	}, 0, len(m.ctrl.Spec.Outputs)+len(m.ctrl.NextState))
	for _, z := range m.ctrl.Spec.Outputs {
		out = append(out, struct {
			name  string
			cover logic.Cover
		}{z, m.ctrl.Outputs[z]})
	}
	for i, cv := range m.ctrl.NextState {
		out = append(out, struct {
			name  string
			cover logic.Cover
		}{fmt.Sprintf("y%d", i), cv})
	}
	return out
}

// buildSpeedSplit emits NAND-NAND logic, levels mapped separately.
// Per the paper's Section 6, the Minimalist speed scripts use
// single-output optimization that "usually duplicates gates in order to
// decrease critical paths": each output cone is built independently,
// including its own input inverters (no sharing across functions).
func (m *mapper) buildSpeedSplit() error {
	for _, f := range m.functions() {
		// Private inverters for this function's cone.
		m.inv = map[int]int{}
		outNet := m.nl.Net(f.name)
		if len(f.cover) == 0 {
			m.nl.AddInstance("BUF", []int{m.nl.ConstZero()}, outNet, 2)
			continue
		}
		var productBars []int
		for _, cube := range f.cover {
			var lits []int
			for v, val := range cube {
				if val == logic.DC {
					continue
				}
				lits = append(lits, m.literal(v, val, 1))
			}
			if len(lits) == 0 {
				return fmt.Errorf("function %s has a tautology product", f.name)
			}
			p := m.nl.Fresh(f.name + "_p")
			m.reduceTree(lits, "AND", "NAND", 1, p)
			productBars = append(productBars, p)
		}
		// Second level: f = NAND of the inverted products.
		m.reduceTree(productBars, "AND", "NAND", 2, outNet)
	}
	return nil
}

// buildAreaShared emits AND/OR logic with products shared across
// functions, then the C-element peephole.
func (m *mapper) buildAreaShared() error {
	// C-element extraction first: any function (fed-back output or
	// extra state bit) whose cover is majority(a, b, self) is a Muller
	// C-element — e.g. the passivator's acknowledges.
	fns := m.functions()
	cIns := make([][]int, len(fns)) // C2 inputs of a C-driven function
	for i, f := range fns {
		if a, b, ok := m.majoritySelf(f.cover, f.name); ok {
			m.nl.AddInstance("C2", []int{a, b}, m.nl.Net(f.name), 0)
			cIns[i] = []int{a, b}
		}
	}
	// A function whose cover equals a C-driven function g's is
	// majority(a, b, g), and it equals g in every state, so it is a
	// C-element on the same a and b holding its own value. A buffer of
	// g would not do: during a burst it reads g's old value, not the
	// next one the function's cover gives.
	for i, f := range fns {
		if cIns[i] != nil {
			continue
		}
		for j, g := range fns {
			if cIns[j] != nil && coversEqual(f.cover, g.cover) {
				m.nl.AddInstance("C2", cIns[j], m.nl.Net(f.name), 0)
				cIns[i] = cIns[j]
				break
			}
		}
	}
	products := map[string]int{}
	productNet := func(cube logic.Cube) (int, error) {
		key := cube.String()
		if n, ok := products[key]; ok {
			return n, nil
		}
		var lits []int
		for v, val := range cube {
			if val == logic.DC {
				continue
			}
			lits = append(lits, m.literal(v, val, 1))
		}
		if len(lits) == 0 {
			return 0, fmt.Errorf("tautology product")
		}
		if len(lits) == 1 {
			products[key] = lits[0]
			return lits[0], nil
		}
		p := m.nl.Fresh("p")
		m.reduceTree(lits, "AND", "AND", 1, p)
		products[key] = p
		return p, nil
	}
	for i, f := range fns {
		if cIns[i] != nil {
			continue
		}
		outNet := m.nl.Net(f.name)
		if len(f.cover) == 0 {
			m.nl.AddInstance("BUF", []int{m.nl.ConstZero()}, outNet, 2)
			continue
		}
		var prods []int
		for _, cube := range f.cover {
			p, err := productNet(cube)
			if err != nil {
				return fmt.Errorf("function %s: %w", f.name, err)
			}
			prods = append(prods, p)
		}
		if len(prods) == 1 {
			m.nl.AddInstance("BUF", []int{prods[0]}, outNet, 2)
			continue
		}
		m.reduceTree(prods, "OR", "OR", 2, outNet)
	}
	return nil
}

// varIndex maps a variable name to its index in ctrl.Vars, -1 if none.
func (m *mapper) varIndex(name string) int {
	for i, v := range m.ctrl.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// majoritySelf matches cover == {ab, a·self, b·self} with self positive,
// returning the literal nets for a and b.
func (m *mapper) majoritySelf(cv logic.Cover, selfName string) (int, int, bool) {
	selfVar := m.varIndex(selfName)
	if selfVar < 0 || len(cv) != 3 {
		return 0, 0, false
	}
	// Collect literal positions/values.
	type lit struct {
		v   int
		val logic.Lit
	}
	litsOf := func(c logic.Cube) []lit {
		var out []lit
		for v, val := range c {
			if val != logic.DC {
				out = append(out, lit{v, val})
			}
		}
		return out
	}
	counts := map[lit]int{}
	for _, c := range cv {
		ls := litsOf(c)
		if len(ls) != 2 {
			return 0, 0, false
		}
		for _, l := range ls {
			counts[l]++
		}
	}
	if len(counts) != 3 {
		return 0, 0, false
	}
	var others []lit
	selfOK := false
	for l, n := range counts {
		if n != 2 {
			return 0, 0, false
		}
		if l.v == selfVar {
			if l.val != logic.One {
				return 0, 0, false
			}
			selfOK = true
		} else {
			others = append(others, l)
		}
	}
	if !selfOK || len(others) != 2 {
		return 0, 0, false
	}
	sort.Slice(others, func(i, j int) bool { return others[i].v < others[j].v })
	a := m.literal(others[0].v, others[0].val, 0)
	b := m.literal(others[1].v, others[1].val, 0)
	return a, b, true
}

// coversEqual reports whether two covers contain exactly the same
// product terms.
func coversEqual(a, b logic.Cover) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(cv logic.Cover) []string {
		out := make([]string, len(cv))
		for i, c := range cv {
			out[i] = c.String()
		}
		sort.Strings(out)
		return out
	}
	as, bs := norm(a), norm(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Report summarizes a mapped controller.
type Report struct {
	Name     string
	Mode     Mode
	Cells    int
	Area     float64
	Critical float64
}

// Summarize computes the report for a mapped netlist.
func Summarize(nl *gates.Netlist, mode Mode, lib *cell.Library) Report {
	return Report{
		Name:     nl.Name,
		Mode:     mode,
		Cells:    len(nl.Instances),
		Area:     nl.Area(lib),
		Critical: nl.CriticalDelay(lib),
	}
}

func (r Report) String() string {
	return fmt.Sprintf("%s [%s]: %d cells, %.0f um2, %.2f ns critical",
		r.Name, r.Mode, r.Cells, r.Area, r.Critical)
}

// CheckMapped verifies that a SpeedSplit-mapped netlist computes the
// synthesized hazard-free cover of every output and state-bit
// function. Up to 14 variables it compares them on every point, which
// proves them identical. Beyond that it compares them on 2^14 fixed
// pseudo-random points, so a mismatch elsewhere can go unseen. Because
// the mapping uses only tree regrouping, DeMorgan and associativity —
// hazard-non-increasing transformations — identical functionality
// implies the mapped controller inherits the covers' hazard-freedom
// (the paper's Section 5 argument). Both point sets are built once per
// process and shared by every audit.
//
// AreaShared netlists are not pointwise-identical (the C-element
// peephole folds outputs into feedback state); they are validated
// dynamically by driving them through the specification (package sim).
//
// No product path runs this check: the flow's hazver gate, balsabm
// audit, the .bms form of balsabm artifacts and the root package's
// AuditMapped all verify mapped netlists with hazver, whose endpoint
// passes cover every point fundamental mode reaches
// (flow.TestHazverSubsumesCheckMapped). It stays as the reference of
// that differential and of the .bms fuzz target FuzzBMSynth
// (internal/hazver), and for the benchmark's traced replay.
func CheckMapped(ctrl *minimalist.Controller, nl *gates.Netlist, lib *cell.Library) error {
	return CheckMappedOpt(ctrl, nl, lib, CheckOptions{})
}

// CheckOptions tunes CheckMapped's execution. The verdict is
// identical for every option combination.
type CheckOptions struct {
	// Pool admits the sample-point batches as leaf work units; nil
	// uses the process-wide default pool. CheckMappedOpt fans out
	// composite batches itself, so it must not be called while the
	// caller already holds a slot of the same pool.
	Pool *parallel.Pool
	// Ctx cancels the audit between batches; nil means background.
	Ctx context.Context
}

// mappedCheck is one audited function: a named output or state bit,
// its net, and its packed reference cover.
type mappedCheck struct {
	kind  string // "output" or "state bit"
	name  string
	net   int
	cover []logic.PackedCube
}

// CheckMappedOpt is CheckMapped with explicit pool/context. The fast
// path compiles the netlist once (gates.Compile with the forced nets
// as cut points) and sweeps the shared points 64 per pass, each
// pass checked word-parallel against the packed reference covers
// (logic.EvalCoverLanes); point batches fan out deterministically
// over the worker pool. When the netlist does not compile — a
// combinational cycle the forced cut misses, a stateful cell outside
// the cut — it falls back to the interpreted per-point reference
// loop.
func CheckMappedOpt(ctrl *minimalist.Controller, nl *gates.Netlist, lib *cell.Library, opt CheckOptions) error {
	vars := ctrl.Vars
	// Forced evaluation: outputs are fed back as state variables and
	// y* nets hold the excitation state, so the audit forces both and
	// evaluates every function through its driving instance. State-bit
	// names are computed once, not per sample point.
	yNames := make([]string, ctrl.StateBits)
	for i := range yNames {
		yNames[i] = fmt.Sprintf("y%d", i)
	}
	forced := make(map[int]bool, len(ctrl.Spec.Outputs)+len(yNames))
	for _, z := range ctrl.Spec.Outputs {
		forced[nl.Net(z)] = true
	}
	for _, y := range yNames {
		forced[nl.Net(y)] = true
	}
	// Pack every reference cover once; sampled points then evaluate
	// word-parallel instead of per-literal per cube. Outputs are
	// checked in specification order, then the extra state bits.
	space := logic.NewSpace(len(vars))
	checks := make([]mappedCheck, 0, len(ctrl.Spec.Outputs)+len(ctrl.NextState))
	for _, z := range ctrl.Spec.Outputs {
		checks = append(checks, mappedCheck{kind: "output", name: z, net: nl.Net(z), cover: space.PackCover(ctrl.Outputs[z])})
	}
	for i, cv := range ctrl.NextState {
		checks = append(checks, mappedCheck{kind: "state bit", name: yNames[i], net: nl.Net(yNames[i]), cover: space.PackCover(cv)})
	}
	// Every checked net must have a driving instance to recompute.
	drv := nl.DriverIndex()
	for _, ck := range checks {
		if drv[ck.net] < 0 {
			return fmt.Errorf("techmap: %s: net %s has no driver", nl.Name, ck.name)
		}
	}
	varNets := make([]int, len(vars))
	for i, v := range vars {
		varNets[i] = -1
		if nl.HasNet(v) {
			varNets[i] = nl.Net(v)
		}
	}
	sw, total := auditSweep(len(vars))
	if prog, err := gates.Compile(nl, lib, forced); err == nil {
		return checkMappedCompiled(nl, prog, vars, varNets, checks, sw, total, opt)
	}
	return checkMappedInterpreted(nl, lib, space, vars, varNets, forced, checks, sw, total)
}

// assignAt rebuilds the variable assignment of one lane for an error
// message.
func assignAt(vars []string, words []uint64, lane int) map[string]bool {
	assign := make(map[string]bool, len(vars))
	for i, v := range vars {
		assign[v] = words[i]>>uint(lane)&1 != 0
	}
	return assign
}

// blocksPerBatch is the number of 64-point blocks one pool leaf
// settles: 16K points make 256 blocks, so batches of 32 give the pool
// eight leaves per audited controller without per-block scheduling
// overhead.
const blocksPerBatch = 32

// checkMappedCompiled checks the first total points of sw, 64 per
// pass of the compiled netlist.
func checkMappedCompiled(nl *gates.Netlist, prog *gates.Program, vars []string, varNets []int, checks []mappedCheck, sw *sweep, total int, opt CheckOptions) error {
	blocks := (total + 63) / 64
	batches := (blocks + blocksPerBatch - 1) / blocksPerBatch
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// parallel.MapCtx keeps error selection deterministic (lowest
	// failing batch wins) and each batch scans its blocks in order, so
	// the reported mismatch is the lowest failing sample point at any
	// worker count.
	_, err := parallel.MapCtx(ctx, opt.Pool, batches, func(bi int) (struct{}, error) {
		ev := prog.NewEval()
		lo := bi * blocksPerBatch
		hi := min(lo+blocksPerBatch, blocks)
		for b := lo; b < hi; b++ {
			w := sw.row(b, len(vars))
			ev.Reset()
			for i, net := range varNets {
				if net >= 0 {
					ev.Set(net, w[i])
				}
			}
			ev.Run()
			// Below 6 variables the audit has fewer than 64 points;
			// the lanes past them hold other points of the shared
			// table and are not compared.
			valid := ^uint64(0)
			if rem := total - b*64; rem < 64 {
				valid = 1<<uint(rem) - 1
			}
			for _, ck := range checks {
				got, _ := ev.Driver(ck.net)
				want := logic.EvalCoverLanes(ck.cover, w)
				if diff := (got ^ want) & valid; diff != 0 {
					lane := bits.TrailingZeros64(diff)
					return struct{}{}, fmt.Errorf("techmap: %s: %s %s differs from cover at %v",
						nl.Name, ck.kind, ck.name, assignAt(vars, w, lane))
				}
			}
		}
		return struct{}{}, nil
	})
	return err
}

// checkMappedInterpreted is the reference path: the interpreted
// settle loop per point of the same sweep, with the per-point garbage
// hoisted — value and scratch buffers are reused across the sweep and
// driver lookups go through the netlist's driver index.
func checkMappedInterpreted(nl *gates.Netlist, lib *cell.Library, space *logic.Space, vars []string, varNets []int, forced map[int]bool, checks []mappedCheck, sw *sweep, total int) error {
	drv := nl.DriverIndex()
	maxIns := 0
	for i := range nl.Instances {
		if n := len(nl.Instances[i].Inputs); n > maxIns {
			maxIns = n
		}
	}
	ins := make([]bool, maxIns)
	vals := make([]bool, len(nl.NetNames))
	pw := make([]uint64, space.Words())
	for p := 0; p < total; p++ {
		w, lane := sw.row(p>>6, len(vars)), p&63
		for i := range vals {
			vals[i] = false
		}
		for i := range pw {
			pw[i] = 0
		}
		for i := range vars {
			v := w[i]>>uint(lane)&1 != 0
			if v {
				pw[i>>6] |= 1 << uint(i&63)
			}
			if net := varNets[i]; net >= 0 {
				vals[net] = v
			}
		}
		if err := settleForcedVals(nl, lib, vals, forced, ins); err != nil {
			return err
		}
		for _, ck := range checks {
			inst := &nl.Instances[drv[ck.net]]
			c := lib.Get(inst.Cell)
			scratch := ins[:len(inst.Inputs)]
			for i, in := range inst.Inputs {
				scratch[i] = vals[in]
			}
			got := c.Eval(scratch, vals[ck.net])
			if got != logic.EvalPointWords(ck.cover, pw) {
				return fmt.Errorf("techmap: %s: %s %s differs from cover at %v", nl.Name, ck.kind, ck.name, assignAt(vars, w, lane))
			}
		}
	}
	return nil
}

// settleForced evaluates combinational logic with certain nets held
// at externally-assigned values. It is the interpreted reference the
// compiled engine is fuzz-tested against (FuzzCompiledEvalAgreement).
func settleForced(nl *gates.Netlist, lib *cell.Library, inputs map[string]bool, forced map[int]bool) ([]bool, error) {
	vals := make([]bool, len(nl.NetNames))
	for name, v := range inputs {
		if !nl.HasNet(name) {
			continue
		}
		vals[nl.Net(name)] = v
	}
	maxIns := 0
	for i := range nl.Instances {
		if n := len(nl.Instances[i].Inputs); n > maxIns {
			maxIns = n
		}
	}
	if err := settleForcedVals(nl, lib, vals, forced, make([]bool, maxIns)); err != nil {
		return nil, err
	}
	return vals, nil
}

// settleForcedVals is settleForced's core loop over a caller-owned
// value vector (already holding the external assignments) and input
// scratch, so the audit's fallback path allocates nothing per point.
func settleForcedVals(nl *gates.Netlist, lib *cell.Library, vals []bool, forced map[int]bool, ins []bool) error {
	for iter := 0; iter < 4*len(nl.Instances)+16; iter++ {
		changed := false
		for _, inst := range nl.Instances {
			if forced[inst.Output] {
				continue
			}
			c := lib.Get(inst.Cell)
			scratch := ins[:len(inst.Inputs)]
			for i, in := range inst.Inputs {
				scratch[i] = vals[in]
			}
			out := c.Eval(scratch, vals[inst.Output])
			if out != vals[inst.Output] {
				vals[inst.Output] = out
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("techmap: %s: audit evaluation did not settle", nl.Name)
}

// ModuleAreas returns per-module area (the paper's three-module split:
// module 1 = first NAND level + input inverters, module 2 = second
// level, module 0 = peephole/boundary cells).
func ModuleAreas(nl *gates.Netlist, lib *cell.Library) map[int]float64 {
	out := map[int]float64{}
	for _, inst := range nl.Instances {
		out[inst.Module] += lib.Get(inst.Cell).Area
	}
	return out
}

// VerilogModules renders the paper's three-Verilog-module structure:
// one module per logic level plus the hierarchical wrapper (here: a
// comment-separated single file, since the split mapping is already
// reflected in the Module tags).
func VerilogModules(nl *gates.Netlist, lib *cell.Library) string {
	var sb strings.Builder
	size := len("// level 1 cells: \n// level 2 cells: \n")
	for _, inst := range nl.Instances {
		if inst.Module == 1 || inst.Module == 2 {
			size += len(inst.Cell) + 1
		}
	}
	sb.Grow(size)
	for level, prefix := range []string{"// level 1 cells: ", "\n// level 2 cells: "} {
		sb.WriteString(prefix)
		for _, inst := range nl.Instances {
			if inst.Module == level+1 {
				sb.WriteString(inst.Cell)
				sb.WriteByte(' ')
			}
		}
	}
	sb.WriteString("\n")
	nl.WriteVerilog(&sb, lib)
	return sb.String()
}
