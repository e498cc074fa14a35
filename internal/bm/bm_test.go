package bm

import (
	"strings"
	"testing"
)

// A tiny valid spec: a C-element-ish passivator.
const passivatorBMS = `
name passivator
input a_r 0
input b_r 0
output a_a 0
output b_a 0
0 1 a_r+ b_r+ | a_a+ b_a+
1 0 a_r- b_r- | a_a- b_a-
`

func TestParseAndString(t *testing.T) {
	sp, err := Parse(passivatorBMS)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "passivator" || sp.NStates != 2 || len(sp.Arcs) != 2 {
		t.Fatalf("%+v", sp)
	}
	if err := sp.Check(); err != nil {
		t.Fatal(err)
	}
	// Round trip.
	sp2, err := Parse(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if sp2.String() != sp.String() {
		t.Fatalf("round trip mismatch:\n%s\n%s", sp, sp2)
	}
}

func TestCheckEmptyInputBurst(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\noutput b 0\n0 1 a+ | b+\n1 0 | b-\n")
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Check()
	if err == nil || !strings.Contains(err.Error(), "empty input burst") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckMaximalSet(t *testing.T) {
	// Arc 2's input burst {a+} is a subset of arc 1's {a+, b+}.
	sp, err := Parse(`name x
input a 0
input b 0
output y 0
0 1 a+ b+ | y+
0 2 a+ | y+
1 0 a- b- | y-
2 0 a- | y-
`)
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Check()
	if err == nil || !strings.Contains(err.Error(), "maximal-set") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckPolarity(t *testing.T) {
	// a rises twice in a row.
	sp, err := Parse("name x\ninput a 0\noutput y 0\n0 1 a+ | y+\n1 0 a+ | y-\n")
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Check()
	if err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckUnreachable(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\noutput y 0\n0 0 a+ | y+\n")
	if err != nil {
		t.Fatal(err)
	}
	// a+ then a+ again on the self-loop: polarity error, so build a
	// proper two-phase loop plus an unreachable state.
	sp, err = Parse(`name x
input a 0
output y 0
0 1 a+ | y+
1 0 a- | y-
2 3 a+ | y+
3 2 a- | y-
`)
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Check()
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckDeadState(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\noutput y 0\n0 1 a+ | y+\n")
	if err != nil {
		t.Fatal(err)
	}
	err = sp.Check()
	if err == nil || !strings.Contains(err.Error(), "no outgoing") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckWrongDirection(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\noutput y 0\n0 1 y+ | a+\n1 0 y- | a-\n")
	if err != nil {
		t.Fatal(err)
	}
	if err = sp.Check(); err == nil {
		t.Fatal("expected direction error")
	}
}

func TestCheckDuplicateSignalInBurst(t *testing.T) {
	sp := &Spec{Name: "x", Inputs: []string{"a"}, Outputs: []string{"y"}, NStates: 2,
		Arcs: []Arc{
			{From: 0, To: 1, In: Burst{{"a", true}, {"a", true}}, Out: Burst{{"y", true}}},
			{From: 1, To: 0, In: Burst{{"a", false}}, Out: Burst{{"y", false}}},
		}}
	if err := sp.Check(); err == nil {
		t.Fatal("expected duplicate-signal error")
	}
}

func TestStateValues(t *testing.T) {
	sp, err := Parse(passivatorBMS)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := sp.StateValues()
	if err != nil {
		t.Fatal(err)
	}
	if vals.Get(0, "a_r") || vals.Get(0, "a_a") {
		t.Fatal("state 0 should be all zero")
	}
	if !vals.Get(1, "a_r") || !vals.Get(1, "b_a") {
		t.Fatal("state 1 should have a_r and b_a high")
	}
}

func TestBurstOps(t *testing.T) {
	b := Burst{{"x", true}, {"a", false}}
	b.Sort()
	if b[0].Name != "a" {
		t.Fatalf("sort failed: %v", b)
	}
	if !b.Contains(Sig{"x", true}) || b.Contains(Sig{"x", false}) {
		t.Fatal("contains failed")
	}
	if !b.SubsetOf(Burst{{"a", false}, {"x", true}, {"z", true}}) {
		t.Fatal("subset failed")
	}
	if (Burst{{"q", true}}).SubsetOf(b) {
		t.Fatal("subset false positive")
	}
	c := b.Clone()
	c[0].Name = "mutated"
	if b[0].Name != "a" {
		t.Fatal("clone aliases")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"name",
		"0 x a+ | y+",
		"x 1 a+ | y+",
		"0 1 a | y+",
		"0",
		"input",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestIsInputAndSignals(t *testing.T) {
	sp, err := Parse(passivatorBMS)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsInput("a_r") || sp.IsInput("a_a") {
		t.Fatal("IsInput wrong")
	}
	sigs := sp.Signals()
	if len(sigs) != 4 || sigs[0] != "a_a" {
		t.Fatalf("signals %v", sigs)
	}
}

// A signal declared twice is one variable; synthesis must never see it
// as two.
func TestCheckDuplicateDeclaration(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\ninput a 0\noutput b 0\n0 1 a+ | b+\n1 0 a- | b-\n")
	if err != nil {
		t.Fatal(err)
	}
	vs := sp.Violations()
	if len(vs) != 1 || vs[0].Kind != KindDeclaration || vs[0].Sig != "a" {
		t.Fatalf("violations %v, want one KindDeclaration on a", vs)
	}
	if err := sp.Check(); err == nil || !strings.Contains(err.Error(), "signal a is declared twice") {
		t.Fatalf("Check = %v", err)
	}
}

func TestCheckInputOutputDeclaration(t *testing.T) {
	sp, err := Parse("name x\ninput a 0\noutput a 0\noutput b 0\n0 1 a+ | b+\n1 0 a- | b-\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.StateValues(); err == nil || !strings.Contains(err.Error(), "signal a is declared as both input and output") {
		t.Fatalf("StateValues error = %v", err)
	}
}

// Check assumes every signal starts low, so any other initial value is
// a parse error rather than a silently dropped one.
func TestParseRejectsNonzeroInitialValue(t *testing.T) {
	for _, src := range []string{
		"name x\ninput a 1\noutput b 0\n0 1 a- | b+\n1 0 a+ | b-\n",
		"name x\ninput a 0\noutput b 1\n0 1 a+ | b-\n1 0 a- | b+\n",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "only 0 is supported") {
			t.Errorf("Parse(%q) = %v, want an initial-value error", src, err)
		}
	}
}
