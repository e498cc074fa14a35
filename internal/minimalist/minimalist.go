// Package minimalist synthesizes Burst-Mode specifications into
// hazard-free two-level logic, standing in for the Minimalist package
// (Fuhrer & Nowick) used by the paper's back-end.
//
// The flow: a BM specification is turned into a Huffman-style machine
// with fed-back state variables. States receive a critical-race-free
// encoding found by dichotomy covering (Tracey-style constraints
// generated from pairs of arcs whose input-transition cubes intersect).
// Every output and next-state function is then minimized independently
// ("single-output mode" — the paper's speed-oriented Minimalist script)
// with the Nowick–Dill hazard-free minimizer (package hfmin).
//
// Conflicting value requirements discovered while building the function
// tables trigger state-assignment refinement: a new dichotomy is added
// separating the two arcs' state sets and the encoding is recomputed.
package minimalist

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"balsabm/internal/bm"
	"balsabm/internal/hfmin"
	"balsabm/internal/logic"
	"balsabm/internal/parallel"
)

// Controller is a synthesized Burst-Mode controller: two-level
// hazard-free covers for every output and state variable.
//
// Like Minimalist, the synthesizer feeds outputs back as state
// variables: the machine state is encoded by the output values at
// state entry plus as many extra state bits (y0..) as needed to
// distinguish states with identical output vectors and to satisfy the
// critical-race constraints. Small library components (sequencers,
// calls, passivators) typically need zero or one extra bit, which is
// what keeps the unoptimized baseline close to hand-cell size.
type Controller struct {
	Spec      *bm.Spec
	Inputs    []string // input variable order (spec inputs)
	StateBits int      // number of EXTRA state bits beyond fed-back outputs
	// Vars is the full variable order: inputs, then outputs (fed
	// back), then extra state bits y0..y{k-1}.
	Vars    []string
	Codes   [][]bool               // state -> full code: output values ++ extra bits
	Outputs map[string]logic.Cover // output signal -> cover
	// NextState holds the covers of the extra state bits only; fed-back
	// outputs are their own excitation.
	NextState []logic.Cover
	// Transitions records the specified input transitions per function,
	// for downstream hazard auditing of mapped logic.
	Transitions map[string][]hfmin.Transition
	// Stats aggregates the minimizer's work counters over every
	// function of the final (conflict-free) encoding.
	Stats Stats
}

// Stats aggregates hfmin work counters across a controller's output
// and next-state functions, making a fallback to the greedy paths
// observable per controller.
type Stats struct {
	Functions      int   // functions minimized
	ExactFunctions int   // functions solved on the exact path end to end
	EnumNodes      int64 // prime-enumeration nodes visited
	BranchNodes    int64 // covering branch-and-bound nodes visited
}

// Exact reports whether every function went through the exact
// enumeration and covering path (no greedy fallback anywhere).
func (s Stats) Exact() bool { return s.Functions == s.ExactFunctions }

func (s *Stats) observe(r *hfmin.Result) {
	s.Functions++
	if r.Exact {
		s.ExactFunctions++
	}
	s.EnumNodes += r.EnumNodes
	s.BranchNodes += r.BranchNodes
}

// Options tune synthesis. The zero value minimizes every function
// sequentially on the calling goroutine.
type Options struct {
	// Pool, when non-nil, admits per-function minimizations as leaf
	// units of pool work, so independent output and next-state
	// functions minimize concurrently. Results are byte-identical to
	// the sequential path: fan-out preserves function order and every
	// minimization is deterministic in isolation.
	Pool *parallel.Pool
	// Ctx cancels in-flight synthesis; nil means context.Background().
	Ctx context.Context
}

// Products returns the total number of product terms.
func (c *Controller) Products() int {
	n := 0
	for _, cv := range c.Outputs {
		n += len(cv)
	}
	for _, cv := range c.NextState {
		n += len(cv)
	}
	return n
}

// Literals returns the total literal count over all covers.
func (c *Controller) Literals() int {
	n := 0
	for _, cv := range c.Outputs {
		for _, cube := range cv {
			n += cube.Literals()
		}
	}
	for _, cv := range c.NextState {
		for _, cube := range cv {
			n += cube.Literals()
		}
	}
	return n
}

// dichotomy requires some state bit to separate group A from group B.
type dichotomy struct{ a, b []int }

func (d dichotomy) key() string {
	return fmt.Sprintf("%v|%v", d.a, d.b)
}

// arcInfo caches per-arc geometry.
type arcInfo struct {
	arc    bm.Arc
	xStart []bool // input values entering the source state
	xEnd   []bool // input values after the input burst
}

// Synthesize runs the full flow on a checked specification,
// sequentially. See SynthesizeOpt for the concurrent form.
func Synthesize(sp *bm.Spec) (*Controller, error) {
	return SynthesizeOpt(sp, Options{})
}

// SynthesizeOpt runs the full flow on a checked specification.
func SynthesizeOpt(sp *bm.Spec, opt Options) (*Controller, error) {
	values, err := sp.StateValues() // fails with Check's error
	if err != nil {
		return nil, err
	}
	// Extra state bits are named y0, y1, ...; signal names must not
	// collide with them (channel-derived names never do in practice).
	for _, sigs := range [][]string{sp.Inputs, sp.Outputs} {
		for _, s := range sigs {
			if isStateBitName(s) {
				return nil, fmt.Errorf("minimalist: %s: signal name %q collides with state-bit naming", sp.Name, s)
			}
		}
	}
	inputs := append([]string(nil), sp.Inputs...)
	arcs := make([]arcInfo, len(sp.Arcs))
	for i, a := range sp.Arcs {
		xs := make([]bool, len(inputs))
		xe := make([]bool, len(inputs))
		for j, in := range inputs {
			xs[j] = values.Get(a.From, in)
			xe[j] = xs[j]
		}
		for _, s := range a.In {
			for j, in := range inputs {
				if in == s.Name {
					xe[j] = s.Rise
				}
			}
		}
		arcs[i] = arcInfo{arc: a, xStart: xs, xEnd: xe}
	}

	// Output vectors at state entry: the fed-back-output part of the
	// state code.
	outVec := make([][]bool, sp.NStates)
	for s := 0; s < sp.NStates; s++ {
		vec := make([]bool, len(sp.Outputs))
		for i, z := range sp.Outputs {
			vec[i] = values.Get(s, z)
		}
		outVec[s] = vec
	}
	// separatedByOutputs reports whether some fed-back output already
	// realizes the dichotomy (constant on each group, different
	// between groups).
	separatedByOutputs := func(d dichotomy) bool {
		for z := range sp.Outputs {
			ok := true
			va := outVec[d.a[0]][z]
			for _, s := range d.a {
				if outVec[s][z] != va {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			vb := !va
			for _, s := range d.b {
				if outVec[s][z] != vb {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}

	// Base dichotomies: pairwise state distinction, plus Tracey-style
	// race constraints for arc pairs with intersecting input cubes —
	// keeping only those the fed-back outputs do not already satisfy.
	dset := map[string]dichotomy{}
	add := func(d dichotomy) {
		sort.Ints(d.a)
		sort.Ints(d.b)
		if len(d.a) > 0 && len(d.b) > 0 && !separatedByOutputs(d) {
			dset[d.key()] = d
		}
	}
	for s := 0; s < sp.NStates; s++ {
		for u := s + 1; u < sp.NStates; u++ {
			add(dichotomy{a: []int{s}, b: []int{u}})
		}
	}
	for i := range arcs {
		for j := i + 1; j < len(arcs); j++ {
			addRaceDichotomy(&arcs[i], &arcs[j], add)
		}
	}

	// Iterate: encode, build tables, refine on conflict.
	for iter := 0; iter < 64; iter++ {
		extra := assignCodes(sp.NStates, sp.Start, dset)
		codes := make([][]bool, sp.NStates)
		for s := range codes {
			code := make([]bool, 0, len(outVec[s])+len(extra[s]))
			codes[s] = append(append(code, outVec[s]...), extra[s]...)
		}
		ctrl, conflict, err := buildAndMinimize(sp, inputs, arcs, codes, len(extra[0]), opt)
		if err != nil {
			return nil, err
		}
		if conflict == nil {
			return ctrl, nil
		}
		before := len(dset)
		add(*conflict)
		if len(dset) == before {
			return nil, fmt.Errorf("minimalist: %s: unresolvable value conflict between states %v and %v",
				sp.Name, conflict.a, conflict.b)
		}
	}
	return nil, fmt.Errorf("minimalist: %s: state assignment did not converge", sp.Name)
}

// addRaceDichotomy adds the Tracey constraint for two arcs whose input
// transition cubes intersect: their state pairs must be separated by
// some bit so the fed-back code cubes cannot interfere.
func addRaceDichotomy(t1, t2 *arcInfo, add func(dichotomy)) {
	// Input-cube intersection test over the x variables.
	for i := range t1.xStart {
		lo1, hi1 := t1.xStart[i], t1.xEnd[i]
		lo2, hi2 := t2.xStart[i], t2.xEnd[i]
		span1 := lo1 != hi1
		span2 := lo2 != hi2
		if !span1 && !span2 && lo1 != lo2 {
			return // disjoint input columns: no constraint
		}
	}
	set1 := map[int]bool{t1.arc.From: true, t1.arc.To: true}
	if set1[t2.arc.From] || set1[t2.arc.To] {
		return // shared state: inseparable, chained transitions
	}
	a := []int{t1.arc.From}
	if t1.arc.To != t1.arc.From {
		a = append(a, t1.arc.To)
	}
	b := []int{t2.arc.From}
	if t2.arc.To != t2.arc.From {
		b = append(b, t2.arc.To)
	}
	add(dichotomy{a: a, b: b})
}

// assignCodes solves the dichotomy covering problem greedily: each code
// bit is a (partial) bipartition of the states; every dichotomy must be
// realized by some bit. The start state is normalized to the all-zero
// code.
func assignCodes(nStates, start int, dset map[string]dichotomy) [][]bool {
	keys := make([]string, 0, len(dset))
	for k := range dset {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type bit []int8 // per state: -1 unassigned, 0, 1
	var bits []bit
	place := func(d dichotomy) {
		for _, b := range bits {
			// Try to realize d in bit b with polarity (a=0,b=1) or
			// (a=1,b=0).
			for _, pol := range []int8{0, 1} {
				ok := true
				for _, s := range d.a {
					if b[s] != -1 && b[s] != pol {
						ok = false
						break
					}
				}
				if ok {
					for _, s := range d.b {
						if b[s] != -1 && b[s] != 1-pol {
							ok = false
							break
						}
					}
				}
				if ok {
					for _, s := range d.a {
						b[s] = pol
					}
					for _, s := range d.b {
						b[s] = 1 - pol
					}
					return
				}
			}
		}
		nb := make(bit, nStates)
		for i := range nb {
			nb[i] = -1
		}
		for _, s := range d.a {
			nb[s] = 0
		}
		for _, s := range d.b {
			nb[s] = 1
		}
		bits = append(bits, nb)
	}
	for _, k := range keys {
		place(dset[k])
	}
	// Pack: merge compatible bits (two partial bipartitions merge if,
	// under some polarity, no state is assigned opposite values). A
	// dichotomy realized in either bit stays realized in the merge.
	for changed := true; changed; {
		changed = false
	outer:
		for i := 0; i < len(bits); i++ {
			for j := i + 1; j < len(bits); j++ {
				for _, pol := range []int8{0, 1} {
					ok := true
					for s := 0; s < nStates; s++ {
						if bits[i][s] != -1 && bits[j][s] != -1 && bits[i][s] != bits[j][s]^pol {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					for s := 0; s < nStates; s++ {
						if bits[i][s] == -1 && bits[j][s] != -1 {
							bits[i][s] = bits[j][s] ^ pol
						}
					}
					bits = append(bits[:j], bits[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	codes := make([][]bool, nStates)
	for s := range codes {
		codes[s] = make([]bool, len(bits))
		for i, b := range bits {
			v := b[s]
			if v == -1 {
				v = 0
			}
			codes[s][i] = v == 1
		}
	}
	// Normalize: start state = all zeros.
	ref := append([]bool(nil), codes[start]...)
	for s := range codes {
		for i := range codes[s] {
			codes[s][i] = codes[s][i] != ref[i]
		}
	}
	return codes
}

// fnSpec tags a derived transition with its source arcs for conflict
// attribution.
type fnSpec struct {
	tr   hfmin.Transition
	arcA int // index of the originating arc
}

// buildAndMinimize derives per-function transition tables under the
// given full-state encoding (fed-back outputs ++ nExtra extra bits) and
// minimizes each; on a value conflict it returns the dichotomy that
// would separate the clashing arcs.
func buildAndMinimize(sp *bm.Spec, inputs []string, arcs []arcInfo, codes [][]bool, nExtra int, opt Options) (*Controller, *dichotomy, error) {
	nOut := len(sp.Outputs)
	vars := make([]string, 0, len(inputs)+nOut+nExtra)
	vars = append(vars, inputs...)
	vars = append(vars, sp.Outputs...)
	for i := 0; i < nExtra; i++ {
		vars = append(vars, fmt.Sprintf("y%d", i))
	}
	point := func(x []bool, code []bool) []bool {
		out := make([]bool, 0, len(x)+len(code))
		out = append(out, x...)
		out = append(out, code...)
		return out
	}
	// The function at code position pos is named vars[len(inputs)+pos]:
	// fed-back outputs are their own excitation.
	names := vars[len(inputs):]

	// Every function gets one T1 per arc and one T2 per arc whose code
	// changes, so each list is made at its final size.
	perFn := len(arcs)
	for _, ai := range arcs {
		if !sameCode(codes[ai.arc.From], codes[ai.arc.To]) {
			perFn++
		}
	}
	fns := make([][]fnSpec, len(names))
	for pos := range fns {
		fns[pos] = make([]fnSpec, 0, perFn)
	}
	addTr := func(pos, arcIdx int, start, end []bool, from, to bool) {
		fns[pos] = append(fns[pos], fnSpec{
			tr:   hfmin.Transition{Start: start, End: end, From: from, To: to},
			arcA: arcIdx,
		})
	}
	for i, ai := range arcs {
		a := ai.arc
		from, to := a.From, a.To
		// Horizontal transition T1: the input burst, full code fixed;
		// every code component's function moves from its entry value to
		// its target (output burst / state change) at the end point.
		A1 := point(ai.xStart, codes[from])
		B1 := point(ai.xEnd, codes[from])
		for pos := 0; pos < len(codes[from]); pos++ {
			addTr(pos, i, A1, B1, codes[from][pos], codes[to][pos])
		}
		// Vertical transition T2: the code burst (outputs firing plus
		// extra-bit changes) at the new input point; every function
		// holds its target value throughout.
		if !sameCode(codes[from], codes[to]) {
			A2 := point(ai.xEnd, codes[from])
			B2 := point(ai.xEnd, codes[to])
			for pos := 0; pos < len(codes[from]); pos++ {
				addTr(pos, i, A2, B2, codes[to][pos], codes[to][pos])
			}
		}
	}

	// Conflict pre-check with arc attribution, in deterministic
	// function order so refinement (and thus the final encoding) is
	// reproducible run to run.
	for _, specs := range fns {
		if d := findConflict(specs, arcs); d != nil {
			return nil, d, nil
		}
	}

	ctrl := &Controller{
		Spec:        sp,
		Inputs:      inputs,
		StateBits:   nExtra,
		Vars:        vars,
		Codes:       codes,
		Outputs:     map[string]logic.Cover{},
		NextState:   make([]logic.Cover, nExtra),
		Transitions: map[string][]hfmin.Transition{},
	}
	// Minimize every function: independently specified single-output
	// problems, so they can run concurrently. Fan-out preserves
	// function order and each minimization is deterministic, making
	// the aggregate byte-identical to the sequential loop.
	type fnOut struct {
		trs []hfmin.Transition
		res *hfmin.Result
	}
	minimizeOne := func(pos int) (fnOut, error) {
		specs := fns[pos]
		trs := make([]hfmin.Transition, len(specs))
		for i, s := range specs {
			trs[i] = s.tr
		}
		prob := &hfmin.Problem{Vars: len(vars), Names: vars, Transitions: trs}
		res, err := prob.Minimize()
		if err != nil {
			return fnOut{}, fmt.Errorf("minimalist: %s/%s: %w", sp.Name, names[pos], err)
		}
		return fnOut{trs: trs, res: res}, nil
	}
	var outs []fnOut
	if opt.Pool != nil {
		ctx := opt.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		var err error
		outs, err = parallel.MapCtx(ctx, opt.Pool, nOut+nExtra, minimizeOne)
		if err != nil {
			return nil, nil, err
		}
	} else {
		outs = make([]fnOut, nOut+nExtra)
		for pos := range outs {
			o, err := minimizeOne(pos)
			if err != nil {
				return nil, nil, err
			}
			outs[pos] = o
		}
	}
	for pos, o := range outs {
		name := names[pos]
		ctrl.Transitions[name] = o.trs
		ctrl.Stats.observe(o.res)
		if pos < nOut {
			ctrl.Outputs[name] = o.res.Cover
		} else {
			ctrl.NextState[pos-nOut] = o.res.Cover
		}
	}
	return ctrl, nil, nil
}

// findConflict looks for a pair of derived transitions that force
// opposite values on a shared input point, returning the separating
// dichotomy.
func findConflict(specs []fnSpec, arcs []arcInfo) *dichotomy {
	type region struct {
		cube logic.Cube
		val  bool
		arc  int
	}
	var regions []region
	for _, s := range specs {
		t := s.tr
		T := logic.Point(t.Start).Supercube(logic.Point(t.End))
		if t.From == t.To {
			regions = append(regions, region{T, t.From, s.arcA})
			continue
		}
		// Value From on T minus end point, To at end point.
		for v := range t.Start {
			if t.Start[v] == t.End[v] {
				continue
			}
			sub := T.Clone()
			if t.Start[v] {
				sub[v] = logic.One
			} else {
				sub[v] = logic.Zero
			}
			regions = append(regions, region{sub, t.From, s.arcA})
		}
		regions = append(regions, region{logic.Point(t.End), t.To, s.arcA})
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if regions[i].val != regions[j].val && regions[i].cube.Intersects(regions[j].cube) {
				a1, a2 := arcs[regions[i].arc].arc, arcs[regions[j].arc].arc
				set := map[int]bool{a1.From: true, a1.To: true}
				if set[a2.From] || set[a2.To] {
					continue // cannot separate; let hfmin report
				}
				return &dichotomy{
					a: uniqueInts(a1.From, a1.To),
					b: uniqueInts(a2.From, a2.To),
				}
			}
		}
	}
	return nil
}

func uniqueInts(xs ...int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

// isStateBitName reports whether s has the reserved y<digits> form.
func isStateBitName(s string) bool {
	if len(s) < 2 || s[0] != 'y' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func sameCode(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// Eval computes the controller's combinational functions at the given
// input values and full state code (fed-back output values followed by
// extra state bits). It returns the output values and the full
// next-state excitation in code order.
func (c *Controller) Eval(x []bool, state []bool) (outs map[string]bool, next []bool) {
	point := make([]bool, 0, len(x)+len(state))
	point = append(append(point, x...), state...)
	outs = map[string]bool{}
	next = make([]bool, len(c.Spec.Outputs)+c.StateBits)
	for i, z := range c.Spec.Outputs {
		v := c.Outputs[z].Eval(point)
		outs[z] = v
		next[i] = v
	}
	for i, cv := range c.NextState {
		next[len(c.Spec.Outputs)+i] = cv.Eval(point)
	}
	return outs, next
}

// Sol renders the controller in a .sol-style report (the Minimalist
// solution format: per-function PLA covers plus the state encoding).
func (c *Controller) Sol() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; Minimalist-style solution for %s\n", c.Spec.Name)
	fmt.Fprintf(&sb, "; %d states, %d state bits, %d products, %d literals\n",
		c.Spec.NStates, c.StateBits, c.Products(), c.Literals())
	for s, code := range c.Codes {
		fmt.Fprintf(&sb, "; state %d = %s\n", s, codeString(code))
	}
	names := append([]string(nil), c.Spec.Outputs...)
	for _, z := range names {
		sb.WriteString(hfmin.FormatPLA(z, c.Vars, c.Outputs[z]))
	}
	for i, cv := range c.NextState {
		sb.WriteString(hfmin.FormatPLA(fmt.Sprintf("y%d", i), c.Vars, cv))
	}
	return sb.String()
}

func codeString(code []bool) string {
	var sb strings.Builder
	for _, b := range code {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
