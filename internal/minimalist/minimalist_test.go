package minimalist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/logic"
	"balsabm/internal/parallel"
)

func specOf(t *testing.T, name, src string) *bm.Spec {
	t.Helper()
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := chtobm.Compile(&ch.Program{Name: name, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// settle iterates the next-state feedback to a fixpoint.
func settle(c *Controller, x, y []bool) (map[string]bool, []bool, error) {
	for i := 0; i < 8; i++ {
		outs, next := c.Eval(x, y)
		same := true
		for j := range y {
			if y[j] != next[j] {
				same = false
			}
		}
		if same {
			return outs, y, nil
		}
		y = next
	}
	return nil, nil, fmt.Errorf("state feedback did not settle")
}

// walk drives the synthesized machine along the specification graph,
// applying every input burst in several randomized orders, checking (a)
// outputs hold their values mid-burst (Mealy semantics), (b) outputs
// and state settle to the spec's values after the burst completes.
func walk(t *testing.T, sp *bm.Spec, c *Controller, steps int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	values, err := sp.StateValues()
	if err != nil {
		t.Fatal(err)
	}
	state := sp.Start
	x := make([]bool, len(c.Inputs))
	for i, in := range c.Inputs {
		x[i] = values.Get(state, in)
	}
	y := append([]bool(nil), c.Codes[state]...)
	outs, y, err := settle(c, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		arcs := sp.ArcsFrom(state)
		arc := arcs[rng.Intn(len(arcs))]
		// Apply the input burst in a random order.
		burst := append(bm.Burst(nil), arc.In...)
		rng.Shuffle(len(burst), func(i, j int) { burst[i], burst[j] = burst[j], burst[i] })
		for k, sig := range burst {
			for i, in := range c.Inputs {
				if in == sig.Name {
					x[i] = sig.Rise
				}
			}
			midOuts, newY, err := settle(c, x, y)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			y = newY
			if k < len(burst)-1 {
				// Mid-burst: outputs must hold.
				for z, v := range outs {
					if midOuts[z] != v {
						t.Fatalf("step %d (%s): output %s changed mid-burst", step, arc, z)
					}
				}
			} else {
				outs = midOuts
			}
		}
		// After the complete burst: outputs match the spec.
		want := map[string]bool{}
		for _, z := range sp.Outputs {
			want[z] = values.Get(arc.From, z)
		}
		for _, sig := range append(arc.In.Clone(), arc.Out...) {
			want[sig.Name] = sig.Rise
		}
		for _, z := range sp.Outputs {
			if outs[z] != want[z] {
				t.Fatalf("step %d (%s): output %s = %v, want %v", step, arc, z, outs[z], want[z])
			}
		}
		state = arc.To
		// State code must settle to the target encoding.
		for i := range y {
			if y[i] != c.Codes[state][i] {
				t.Fatalf("step %d (%s): state bit y%d = %v, want code of state %d", step, arc, i, y[i], state)
			}
		}
	}
}

func TestPassivatorSynthesis(t *testing.T) {
	sp := specOf(t, "passivator", `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	// With fed-back outputs the two states are distinguished by the
	// acknowledge values themselves: no extra state bit is needed.
	if c.StateBits != 0 {
		t.Fatalf("state bits = %d, want 0", c.StateBits)
	}
	// Both acknowledge outputs minimize to the majority (C-element)
	// cover: 3 products of 2 literals.
	for _, z := range []string{"A_a", "B_a"} {
		cv := c.Outputs[z]
		if len(cv) != 3 {
			t.Fatalf("%s cover %v, want 3 products", z, cv)
		}
		for _, cube := range cv {
			if cube.Literals() != 2 {
				t.Fatalf("%s cover %v, want 2-literal products", z, cv)
			}
		}
	}
	walk(t, sp, c, 40, 1)
}

func TestSequencerSynthesis(t *testing.T) {
	sp := specOf(t, "sequencer", `(rep (enc-early (p-to-p passive P)
	   (seq (p-to-p active A1) (p-to-p active A2))))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	if c.StateBits < 3 {
		t.Logf("sequencer encoded in %d bits", c.StateBits)
	}
	walk(t, sp, c, 60, 2)
}

func TestCallSynthesis(t *testing.T) {
	sp := specOf(t, "call", `(rep (mutex
	   (enc-early (p-to-p passive A1) (p-to-p active B))
	   (enc-early (p-to-p passive A2) (p-to-p active B))))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sp, c, 80, 3)
}

// The Fig 4 merged controller (11 states) synthesizes and runs.
func TestFig4ControllerSynthesis(t *testing.T) {
	sp := specOf(t, "dwseq", `(rep (enc-early (p-to-p passive a1)
	   (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	          (enc-early (p-to-p passive i2)
	             (enc-early void (seq (p-to-p active c1) (p-to-p active c2)))))))`)
	if sp.NStates != 11 {
		t.Fatalf("states %d", sp.NStates)
	}
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sp, c, 120, 4)
}

// The Fig 5 call-distributed controller synthesizes and runs.
func TestFig5ControllerSynthesis(t *testing.T) {
	sp := specOf(t, "seqcall", `(rep (enc-early (p-to-p passive a)
	   (seq (enc-early void (p-to-p active c))
	        (enc-early void (p-to-p active c)))))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sp, c, 60, 5)
}

// Multi-signal bursts (decision-wait entry, mult-req forks) synthesize
// hazard-free.
func TestMultiSignalBurstSynthesis(t *testing.T) {
	sp := specOf(t, "fork", `(rep (enc-early (p-to-p passive p) (mult-req active c 2)))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	walk(t, sp, c, 60, 6)
}

// Property: generated sequencer chains of width 1..5 all synthesize and
// walk correctly.
func TestSequencerFamilySynthesis(t *testing.T) {
	for n := 1; n <= 5; n++ {
		inner := "(p-to-p active A0)"
		for i := 1; i < n; i++ {
			inner = fmt.Sprintf("(seq (p-to-p active A%d) %s)", i, inner)
		}
		sp := specOf(t, fmt.Sprintf("seq%d", n),
			fmt.Sprintf("(rep (enc-early (p-to-p passive P) %s))", inner))
		c, err := Synthesize(sp)
		if err != nil {
			t.Fatalf("width %d: %v", n, err)
		}
		walk(t, sp, c, 50, int64(n))
	}
}

func TestDistinctCodes(t *testing.T) {
	sp := specOf(t, "call", `(rep (mutex
	   (enc-early (p-to-p passive A1) (p-to-p active B))
	   (enc-early (p-to-p passive A2) (p-to-p active B))))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for s, code := range c.Codes {
		k := codeString(code)
		if prev, dup := seen[k]; dup {
			t.Fatalf("states %d and %d share code %s", prev, s, k)
		}
		seen[k] = s
	}
	// Start state must be the all-zero code.
	for _, b := range c.Codes[sp.Start] {
		if b {
			t.Fatal("start state not all-zero")
		}
	}
}

func TestSolReport(t *testing.T) {
	sp := specOf(t, "passivator", `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`)
	c, err := Synthesize(sp)
	if err != nil {
		t.Fatal(err)
	}
	sol := c.Sol()
	for _, want := range []string{".ob A_a", ".ob B_a", "state 0 = 00", "state 1 = 11"} {
		if !containsStr(sol, want) {
			t.Fatalf("missing %q in:\n%s", want, sol)
		}
	}
	if c.Products() <= 0 || c.Literals() <= 0 {
		t.Fatal("stats empty")
	}
}

// Parallel per-function minimization must be byte-identical to the
// sequential path, and the work counters must aggregate identically.
func TestParallelMinimizeEquivalence(t *testing.T) {
	sp := specOf(t, "sequencer", `(rep (enc-early (p-to-p passive P)
	   (seq (p-to-p active A1) (p-to-p active A2))))`)
	seq, err := SynthesizeOpt(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SynthesizeOpt(sp, Options{Pool: parallel.NewPool(4)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := par.Sol(), seq.Sol(); got != want {
		t.Fatalf("parallel solution differs from sequential:\n--- parallel\n%s\n--- sequential\n%s", got, want)
	}
	if par.Stats != seq.Stats {
		t.Fatalf("stats differ: parallel %+v, sequential %+v", par.Stats, seq.Stats)
	}
	if seq.Stats.Functions == 0 {
		t.Fatal("no functions counted")
	}
	if !seq.Stats.Exact() {
		t.Fatalf("sequencer fell back to greedy: %+v", seq.Stats)
	}
	if seq.Stats.EnumNodes == 0 {
		t.Fatal("zero enumeration nodes counted")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// A doubly declared signal must not reach synthesis as two variables.
func TestSynthesizeRejectsDoubleDeclarations(t *testing.T) {
	for _, decl := range []string{"input a 0\ninput a 0", "input a 0\noutput a 0"} {
		sp, err := bm.Parse("name x\n" + decl + "\noutput b 0\n0 1 a+ | b+\n1 0 a- | b-\n")
		if err != nil {
			t.Fatal(err)
		}
		if c, err := Synthesize(sp); err == nil {
			t.Errorf("%q: synthesized over %v", decl, c.Vars)
		}
	}
}

// table3Specs compiles every component of both arms of the four Table 3
// designs: the control netlist and its clustered form.
func table3Specs(t *testing.T) []*bm.Spec {
	t.Helper()
	var specs []*bm.Spec
	for _, d := range designs.All() {
		n := d.Control()
		opt, _, err := core.Optimize(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range append(append([]*ch.Program(nil), n.Components...), opt.Components...) {
			sp, err := chtobm.Compile(c)
			if err != nil {
				t.Fatalf("%s: %s: %v", d.Name, c.Name, err)
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

// randomSpecs compiles seeded random CH programs into specifications.
// The generator obeys the Burst-Mode restrictions of Table 1 by
// construction, so every program compiles.
func randomSpecs(t *testing.T, seed int64, count int) []*bm.Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	next := 0
	var expr func(act ch.Activity, depth int) ch.Expr
	expr = func(act ch.Activity, depth int) ch.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			next++
			return &ch.Chan{Kind: ch.PToP, Act: act, Name: fmt.Sprintf("c%d", next)}
		}
		if act == ch.Active {
			kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.Seq, ch.SeqOv}
			return &ch.Op{Kind: kinds[rng.Intn(len(kinds))], A: expr(ch.Active, depth-1), B: expr(ch.Active, depth-1)}
		}
		if rng.Intn(5) == 0 {
			return &ch.Op{Kind: ch.Mutex, A: expr(ch.Passive, depth-1), B: expr(ch.Passive, depth-1)}
		}
		kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq}
		b := ch.Active
		if rng.Intn(2) == 0 {
			b = ch.Passive
		}
		return &ch.Op{Kind: kinds[rng.Intn(len(kinds))], A: expr(ch.Passive, depth-1), B: expr(b, depth-1)}
	}
	var specs []*bm.Spec
	for i := 0; i < count; i++ {
		act := ch.Active
		if rng.Intn(2) == 0 {
			act = ch.Passive
		}
		body := &ch.Rep{Body: &ch.Op{
			Kind: ch.EncEarly,
			A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "act"},
			B:    expr(act, 1+rng.Intn(4)),
		}}
		sp, err := chtobm.Compile(&ch.Program{Name: fmt.Sprintf("rand%d", i), Body: body})
		if err != nil {
			t.Fatalf("random program %d: %v\n%s", i, err, ch.Format(body))
		}
		specs = append(specs, sp)
	}
	return specs
}

// conflictRounds replays SynthesizeOpt's state-assignment refinement on
// sp without minimizing, calling visit with every function of every
// round in order, and returns the number of rounds. After each round
// the first conflict visit reports refines the encoding, as in
// SynthesizeOpt. With bare set, the replay starts from no dichotomies
// at all, so the first round encodes each state by its outputs alone
// and states that share an output vector clash.
func conflictRounds(t *testing.T, sp *bm.Spec, bare bool, visit func(specs []fnSpec, arcs []arcInfo) *dichotomy) int {
	t.Helper()
	enc, err := newEncoder(sp)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	if bare {
		clear(enc.dset)
	}
	for round := 1; round <= 64; round++ {
		codes, nExtra := enc.codes()
		_, fns := deriveFunctions(sp, enc.inputs, enc.arcs, codes, nExtra)
		var first *dichotomy
		for _, specs := range fns {
			if d := visit(specs, enc.arcs); d != nil && first == nil {
				first = d
			}
		}
		if first == nil || !enc.add(*first) {
			return round
		}
	}
	return 64
}

// TestFindConflictMatchesReference holds the arena findConflict to the
// reference on every function of every refinement round of the 58
// Table 3 specs and of seeded random specs: the same dichotomy, or
// none. The base dichotomies already separate every state those specs
// need, so their rounds meet no conflict; the bare replays, which
// start from no dichotomy, refine through many. One arena serves every
// call, as one serves a buildAndMinimize call, so leftovers of a
// larger function would show.
func TestFindConflictMatchesReference(t *testing.T) {
	var ar conflictArena
	sets := []struct {
		name  string
		specs []*bm.Spec
	}{
		{"table3", table3Specs(t)},
		{"random", randomSpecs(t, 2002, 300)},
	}
	if got := len(sets[0].specs); got != 58 {
		t.Fatalf("%d Table 3 specs, want 58", got)
	}
	for _, set := range sets {
		for _, bare := range []bool{false, true} {
			functions, conflicts, rounds := 0, 0, 0
			for _, sp := range set.specs {
				rounds += conflictRounds(t, sp, bare, func(specs []fnSpec, arcs []arcInfo) *dichotomy {
					want := findConflictRef(specs, arcs)
					if got := findConflict(specs, arcs, &ar); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: findConflict gives %+v, the reference %+v", sp.Name, got, want)
					}
					functions++
					if want != nil {
						conflicts++
					}
					return want
				})
			}
			t.Logf("%s (bare %v): %d specs, %d rounds, %d functions, %d conflicts",
				set.name, bare, len(set.specs), rounds, functions, conflicts)
			if bare && conflicts == 0 {
				t.Errorf("%s: no function of any bare round conflicts; the comparison never saw a dichotomy", set.name)
			}
		}
	}
}

// TestFindConflictAllocs: once its arena has grown, findConflict
// allocates nothing on a function without a separable conflict, which
// is every function of the last round.
func TestFindConflictAllocs(t *testing.T) {
	var ar conflictArena
	for _, sp := range table3Specs(t) {
		enc, err := newEncoder(sp)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := Synthesize(sp)
		if err != nil {
			t.Fatal(err)
		}
		_, fns := deriveFunctions(sp, enc.inputs, enc.arcs, ctrl.Codes, ctrl.StateBits)
		for pos, specs := range fns {
			findConflict(specs, enc.arcs, &ar)
			if a := testing.AllocsPerRun(10, func() {
				if findConflict(specs, enc.arcs, &ar) != nil {
					t.Fatalf("%s: function %d of the final encoding conflicts", sp.Name, pos)
				}
			}); a != 0 {
				t.Fatalf("%s: findConflict on function %d allocates %v times", sp.Name, pos, a)
			}
		}
	}
}

// TestDichotomyKeyMatchesSprintf holds dichotomy.key to the
// fmt.Sprintf("%v|%v") key it replaced, byte for byte, so the
// dichotomy set and assignCodes' sorted key order — hence every state
// code — stay as they were: on every dichotomy of the 58 Table 3
// specs, the base set of each encoder and each conflict of the
// refinement rounds (from the base set and, to meet many conflicts,
// from none), sorted as encoder.add sorts them and as found, and on
// seeded random slices, negative and empty ones included.
func TestDichotomyKeyMatchesSprintf(t *testing.T) {
	checked := 0
	check := func(d dichotomy) {
		t.Helper()
		checked++
		if got, want := d.key(), fmt.Sprintf("%v|%v", d.a, d.b); got != want {
			t.Fatalf("key(%v, %v) = %q, fmt gives %q", d.a, d.b, got, want)
		}
	}
	specs := table3Specs(t)
	if len(specs) != 58 {
		t.Fatalf("%d Table 3 specs, want 58", len(specs))
	}
	for _, sp := range specs {
		enc, err := newEncoder(sp)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(enc.dset))
		for k := range enc.dset {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := enc.dset[k]
			if want := fmt.Sprintf("%v|%v", d.a, d.b); k != want {
				t.Fatalf("%s: dichotomy set key %q, fmt gives %q", sp.Name, k, want)
			}
			check(d)
		}
		for _, bare := range []bool{false, true} {
			conflictRounds(t, sp, bare, func(specs []fnSpec, arcs []arcInfo) *dichotomy {
				d := findConflictRef(specs, arcs)
				if d != nil {
					check(*d)
				}
				return d
			})
		}
	}
	rng := rand.New(rand.NewSource(29))
	states := func() []int {
		if rng.Intn(8) == 0 {
			return nil
		}
		xs := make([]int, rng.Intn(24))
		for i := range xs {
			xs[i] = rng.Intn(1<<uint(rng.Intn(40))) - rng.Intn(3)
		}
		return xs
	}
	for i := 0; i < 20000; i++ {
		check(dichotomy{a: states(), b: states()})
	}
	t.Logf("%d keys checked", checked)
}

// findConflictRef is findConflict as it was before its region cubes
// moved into a packed arena, kept verbatim but for its name as the
// reference TestFindConflictMatchesReference holds the arena version
// to.
//
// findConflict looks for a pair of derived transitions that force
// opposite values on a shared input point, returning the separating
// dichotomy.
func findConflictRef(specs []fnSpec, arcs []arcInfo) *dichotomy {
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
