package chtobm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/minimalist"
)

func compile(t *testing.T, name, src string) *bm.Spec {
	t.Helper()
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := Compile(&ch.Program{Name: name, Body: body})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return sp
}

func arcSet(sp *bm.Spec) map[string]bool {
	m := map[string]bool{}
	for _, a := range sp.Arcs {
		m[fmt.Sprintf("%d>%d:%s/%s", a.From, a.To, a.In, a.Out)] = true
	}
	return m
}

func wantArcs(t *testing.T, sp *bm.Spec, want []string) {
	t.Helper()
	got := arcSet(sp)
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing arc %q in\n%s", w, sp)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d arcs, want %d:\n%s", len(got), len(want), sp)
	}
}

// Fig. 3 (left): the sequencer's Burst-Mode specification has six
// states 0..5 in a single cycle.
func TestFig3Sequencer(t *testing.T) {
	sp := compile(t, "sequencer", `(rep (enc-early (p-to-p passive P)
	   (seq (p-to-p active A1) (p-to-p active A2))))`)
	if sp.NStates != 6 {
		t.Fatalf("got %d states, want 6:\n%s", sp.NStates, sp)
	}
	wantArcs(t, sp, []string{
		"0>1:P_r+/A1_r+",
		"1>2:A1_a+/A1_r-",
		"2>3:A1_a-/A2_r+",
		"3>4:A2_a+/A2_r-",
		"4>5:A2_a-/P_a+",
		"5>0:P_r-/P_a-",
	})
}

// Fig. 3 (middle): the call module has seven states 0..6, two branches
// of the initial choice.
func TestFig3Call(t *testing.T) {
	sp := compile(t, "call", `(rep (mutex
	   (enc-early (p-to-p passive A1) (p-to-p active B))
	   (enc-early (p-to-p passive A2) (p-to-p active B))))`)
	if sp.NStates != 7 {
		t.Fatalf("got %d states, want 7:\n%s", sp.NStates, sp)
	}
	wantArcs(t, sp, []string{
		"0>1:A1_r+/B_r+",
		"1>2:B_a+/B_r-",
		"2>3:B_a-/A1_a+",
		"3>0:A1_r-/A1_a-",
		"0>4:A2_r+/B_r+",
		"4>5:B_a+/B_r-",
		"5>6:B_a-/A2_a+",
		"6>0:A2_r-/A2_a-",
	})
}

// Fig. 3 (right): the passivator has two states with double bursts.
func TestFig3Passivator(t *testing.T) {
	sp := compile(t, "passivator", `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`)
	if sp.NStates != 2 {
		t.Fatalf("got %d states, want 2:\n%s", sp.NStates, sp)
	}
	wantArcs(t, sp, []string{
		"0>1:A_r+ B_r+/A_a+ B_a+",
		"1>0:A_r- B_r-/A_a- B_a-",
	})
}

// The decision-wait of Section 4.1 (the activating component of the
// worked optimization example).
func TestDecisionWait(t *testing.T) {
	sp := compile(t, "dw", `(rep (enc-early (p-to-p passive a1)
	   (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	          (enc-early (p-to-p passive i2) (p-to-p active o2)))))`)
	if sp.NStates != 9 {
		t.Fatalf("got %d states, want 9 (Fig 4 left):\n%s", sp.NStates, sp)
	}
	// The two initial arcs carry the activation and the selecting input
	// together: a1_r+ i1_r+ / o1_r+.
	wantArcs(t, sp, []string{
		"0>1:a1_r+ i1_r+/o1_r+",
		"1>2:o1_a+/o1_r-",
		"2>3:o1_a-/i1_a+",
		"3>4:i1_r-/a1_a+ i1_a-",
		"4>0:a1_r-/a1_a-",
		"0>5:a1_r+ i2_r+/o2_r+",
		"5>6:o2_a+/o2_r-",
		"6>7:o2_a-/i2_a+",
		"7>8:i2_r-/a1_a+ i2_a-",
		"8>0:a1_r-/a1_a-",
	})
}

// A mult-req channel produces a multi-signal burst on one arc.
func TestMultReqBursts(t *testing.T) {
	sp := compile(t, "fork2", `(rep (enc-early (p-to-p passive p) (mult-req active c 2)))`)
	found := false
	for _, a := range sp.Arcs {
		if a.In.String() == "c_a1+ c_a2+" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no joint acknowledge burst:\n%s", sp)
	}
}

// mux-req: the While-style component with a break terminating the loop.
// The exit arm completes its guard handshake with seq before breaking,
// so the activation acknowledge rides on the final guard burst.
func TestMuxReqWithBreak(t *testing.T) {
	src := `(rep (enc-early (p-to-p passive go)
	   (rep (mux-req s
	      (enc-early (p-to-p active body))
	      (seq (break))))))`
	sp := compile(t, "while", src)
	if err := sp.Check(); err != nil {
		t.Fatal(err)
	}
	// The break arm must route back to completing the go handshake.
	var hasGoAck bool
	for _, a := range sp.Arcs {
		if a.Out.Contains(bm.Sig{Name: "go_a", Rise: true}) {
			hasGoAck = true
		}
	}
	if !hasGoAck {
		t.Fatalf("break arm never acknowledges the activation:\n%s", sp)
	}
	// The loop must still loop: some arc returns to the loop-entry
	// state carrying the body channel's completion.
	if sp.NStates < 6 {
		t.Fatalf("suspiciously small machine:\n%s", sp)
	}
}

// A break arm that abandons its guard handshake (enc-early encloses the
// break before the guard completes) leaves the guard request dangling;
// the polarity check must reject the program.
func TestBreakAbandoningHandshakeRejected(t *testing.T) {
	src := `(rep (enc-early (p-to-p passive go)
	   (rep (mux-req s
	      (enc-early (p-to-p active body))
	      (enc-early (break))))))`
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(&ch.Program{Name: "bad-break", Body: body}); err == nil {
		t.Fatal("expected rejection of protocol-violating break")
	}
}

// The compiled spec must be deterministic and polarity-consistent
// (correct-by-construction claim) for a family of generated programs:
// sequencers of width n, nested enclosures, mutex trees.
func TestQuickSequencerFamily(t *testing.T) {
	f := func(width uint8) bool {
		n := int(width)%6 + 1
		inner := "(p-to-p active A0)"
		for i := 1; i < n; i++ {
			inner = fmt.Sprintf("(seq (p-to-p active A%d) %s)", i, inner)
		}
		src := fmt.Sprintf("(rep (enc-early (p-to-p passive P) %s))", inner)
		body, err := ch.Parse(src)
		if err != nil {
			return false
		}
		sp, err := Compile(&ch.Program{Name: "gen", Body: body})
		if err != nil {
			return false
		}
		return sp.NStates == 2*n+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutexFamily(t *testing.T) {
	f := func(width uint8) bool {
		n := int(width)%4 + 2
		arms := make([]string, n)
		for i := range arms {
			arms[i] = fmt.Sprintf("(enc-early (p-to-p passive P%d) (p-to-p active Q%d))", i, i)
		}
		src := "(rep (mutex " + strings.Join(arms, " ") + "))"
		body, err := ch.Parse(src)
		if err != nil {
			return false
		}
		sp, err := Compile(&ch.Program{Name: "gen", Body: body})
		if err != nil {
			return false
		}
		// n branches of 4 states each minus the shared start: 3n+1.
		return sp.NStates == 3*n+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Programs that begin with an output cannot become Burst-Mode machines:
// the compiler must reject rather than emit an input-less arc.
func TestRejectAutonomousProgram(t *testing.T) {
	body, err := ch.Parse(`(rep (seq (p-to-p active a) (p-to-p active b)))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(&ch.Program{Name: "auto", Body: body}); err == nil {
		t.Fatal("expected error for autonomous (output-first) program")
	}
}

// Table 1 ("no" entries) must be rejected before BM construction.
func TestRejectIllegalCombination(t *testing.T) {
	body, err := ch.Parse(`(rep (enc-late (p-to-p active a) (p-to-p active b)))`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(&ch.Program{Name: "bad", Body: body})
	if err == nil {
		t.Fatal("expected validation error")
	}
	var verr *ch.ValidationError
	if !strings.Contains(err.Error(), "Table 1") {
		t.Fatalf("unexpected error: %v (%T)", err, verr)
	}
}

// Correct-by-construction (Section 3.5): every legal single-operator
// program wrapped in a passive activation compiles into a spec that
// passes Check.
func TestCorrectByConstruction(t *testing.T) {
	ops := []string{"enc-early", "enc-middle", "enc-late", "seq", "seq-ov", "mutex"}
	acts := []string{"active", "passive"}
	kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq, ch.SeqOv, ch.Mutex}
	for oi, op := range ops {
		for _, a := range acts {
			for _, b := range acts {
				src := fmt.Sprintf("(rep (enc-early (p-to-p passive act) (%s (p-to-p %s x) (p-to-p %s y))))", op, a, b)
				body, err := ch.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				inner := &ch.Op{Kind: kinds[oi],
					A: &ch.Chan{Kind: ch.PToP, Act: actOf(a), Name: "x"},
					B: &ch.Chan{Kind: ch.PToP, Act: actOf(b), Name: "y"}}
				legalInner := ch.Legal(kinds[oi], actOf(a), actOf(b))
				legalOuter := ch.Legal(ch.EncEarly, ch.Passive, inner.Activity())
				sp, err := Compile(&ch.Program{Name: "cbc", Body: body})
				if legalInner && legalOuter {
					if err != nil {
						t.Errorf("%s %s/%s: legal but failed: %v", op, a, b, err)
						continue
					}
					if cerr := sp.Check(); cerr != nil {
						t.Errorf("%s %s/%s: compiled spec not BM: %v\n%s", op, a, b, cerr, sp)
					}
				} else if err == nil {
					t.Errorf("%s %s/%s: illegal but compiled", op, a, b)
				}
			}
		}
	}
}

func actOf(s string) ch.Activity {
	if s == "active" {
		return ch.Active
	}
	return ch.Passive
}

// Signals directions must be derived and consistent.
func TestSpecSignals(t *testing.T) {
	sp := compile(t, "seq", `(rep (enc-early (p-to-p passive P)
	   (seq (p-to-p active A1) (p-to-p active A2))))`)
	wantIn := []string{"A1_a", "A2_a", "P_r"}
	wantOut := []string{"A1_r", "A2_r", "P_a"}
	if strings.Join(sp.Inputs, ",") != strings.Join(wantIn, ",") {
		t.Fatalf("inputs %v", sp.Inputs)
	}
	if strings.Join(sp.Outputs, ",") != strings.Join(wantOut, ",") {
		t.Fatalf("outputs %v", sp.Outputs)
	}
}

// The same signal used with conflicting directions is an error.
func TestConflictingDirections(t *testing.T) {
	// Channel e is passive in one place and active in another: its
	// request would be both input and output.
	body := &ch.Op{Kind: ch.Seq,
		A: &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "e"},
		B: &ch.Chan{Kind: ch.PToP, Act: ch.Active, Name: "e"},
	}
	_, err := CompileLoose(&ch.Program{Name: "conflict", Body: &ch.Rep{Body: &ch.Op{
		Kind: ch.EncEarly,
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "p"},
		B:    body,
	}}})
	if err == nil || !strings.Contains(err.Error(), "both input and output") {
		t.Fatalf("got %v", err)
	}
}

// A shared tail after an external choice: the builder unrolls the b
// handshake per branch (choice branches carry the remainder), and the
// bisimulation state minimizer merges the identical tails back.
func TestChoiceTailsUnrollAndMinimize(t *testing.T) {
	sp := compile(t, "conv", `(rep (enc-early (p-to-p passive go)
	    (seq (mutex (enc-early (p-to-p passive a1) (p-to-p active q1))
	                (enc-early (p-to-p passive a2) (p-to-p active q2)))
	         (p-to-p active b))))`)
	if err := sp.Check(); err != nil {
		t.Fatal(err)
	}
	if sp.NStates != 13 {
		t.Fatalf("unexpected unrolled size %d:\n%s", sp.NStates, sp)
	}
	min, err := minimalist.MinimizeStates(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The three b-tail states (b pending, b acked, completing) are
	// bisimilar across the two branches and must merge: 13 -> 10.
	if min.NStates != 10 {
		t.Fatalf("minimized to %d states, want 10:\n%s", min.NStates, min)
	}
}

// dedupeArcsByKey is the string-keyed duplicate filter dedupeArcs
// replaced: one "from>to:in/out" key per arc, first occurrence kept.
func dedupeArcsByKey(arcs []bm.Arc) []bm.Arc {
	var out []bm.Arc
	seen := map[string]bool{}
	for _, a := range arcs {
		key := fmt.Sprintf("%d>%d:%s/%s", a.From, a.To, a.In, a.Out)
		if !seen[key] {
			seen[key] = true
			out = append(out, a)
		}
	}
	return out
}

// dedupeArcs keeps exactly the arcs, in exactly the order, of the
// string-keyed filter, on arc lists dense with duplicates: few states
// and bursts drawn from a handful of edges, so equal endpoints with
// different bursts, equal bursts in a different order and repeats of
// an arc all occur.
func TestDedupeArcsMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sigs := []bm.Sig{{Name: "a", Rise: true}, {Name: "a"}, {Name: "b", Rise: true}, {Name: "c"}}
	burst := func() bm.Burst {
		var b bm.Burst
		for _, i := range rng.Perm(len(sigs))[:rng.Intn(3)] {
			b = append(b, sigs[i])
		}
		return b
	}
	for iter := 0; iter < 2000; iter++ {
		nstates := 1 + rng.Intn(4)
		var arcs []bm.Arc
		for i := rng.Intn(24); i > 0; i-- {
			if len(arcs) > 0 && rng.Intn(3) == 0 {
				arcs = append(arcs, arcs[rng.Intn(len(arcs))])
				continue
			}
			arcs = append(arcs, bm.Arc{From: rng.Intn(nstates), To: rng.Intn(nstates), In: burst(), Out: burst()})
		}
		want := dedupeArcsByKey(arcs)
		got := dedupeArcs(append([]bm.Arc(nil), arcs...), nstates)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("arcs %v:\ngot  %v\nwant %v", arcs, got, want)
		}
	}
}
