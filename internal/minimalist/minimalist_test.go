package minimalist

import (
	"fmt"
	"math/rand"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
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
