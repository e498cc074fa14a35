package ch

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return e
}

func mustExpand(t *testing.T, e Expr) Expansion {
	t.Helper()
	x, err := Expand(e)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	return x
}

// Section 3.1: passive point-to-point channel expansion.
func TestPToPPassiveExpansion(t *testing.T) {
	x := mustExpand(t, mustParse(t, "(p-to-p passive A)"))
	want := "[(i A_r +)][(o A_a +)][(i A_r -)][(o A_a -)]"
	if got := x.String(); got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

func TestPToPActiveExpansion(t *testing.T) {
	x := mustExpand(t, mustParse(t, "(p-to-p active B)"))
	want := "[(o B_r +)][(i B_a +)][(o B_r -)][(i B_a -)]"
	if got := x.String(); got != want {
		t.Fatalf("got %s want %s", got, want)
	}
}

// Section 3 intro: enc-early of passive A and active B groups the input
// request and the entire handshake on B into a single event.
func TestEncEarlyIntroExample(t *testing.T) {
	x := mustExpand(t, mustParse(t, "(enc-early (p-to-p passive A) (p-to-p active B))"))
	want := "[(i A_r +) (o B_r +) (i B_a +) (o B_r -) (i B_a -)]" +
		"[(o A_a +)][(i A_r -)][(o A_a -)]"
	if got := x.String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// Section 3.1: (mult-req active c 2) example.
func TestMultReqExample(t *testing.T) {
	x := mustExpand(t, mustParse(t, "(mult-req active c 2)"))
	want := "[(o c_r +)][(i c_a1 +) (i c_a2 +)][(o c_r -)][(i c_a1 -) (i c_a2 -)]"
	if got := x.String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

func TestMultAckExpansion(t *testing.T) {
	x := mustExpand(t, mustParse(t, "(mult-ack passive m 2)"))
	want := "[(i m_r1 +) (i m_r2 +)][(o m_a +)][(i m_r1 -) (i m_r2 -)][(o m_a -)]"
	if got := x.String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// Table 2, row by row, on concrete channels a (first) and b (second).
func TestTable2Expansions(t *testing.T) {
	cases := []struct {
		op   string
		actA string
		actB string
		want string // expansion with a=[a1][a2][a3][a4], b likewise
	}{
		{"enc-early", "active", "active", "[a1][a2 b1 b2 b3 b4][a3][a4]"},
		{"enc-early", "passive", "active", "[a1 b1 b2 b3 b4][a2][a3][a4]"},
		{"enc-early", "passive", "passive", "[a1 b1 b2 b3 b4][a2][a3][a4]"},
		{"enc-late", "passive", "active", "[a1][a2][a3][b1 b2 b3 b4 a4]"},
		{"enc-late", "passive", "passive", "[a1][a2][a3][b1 b2 b3 b4 a4]"},
		{"enc-middle", "active", "active", "[a1 b1][b2 a2][a3 b3][b4 a4]"},
		{"enc-middle", "passive", "active", "[a1 b1][b2 a2][a3 b3][b4 a4]"},
		{"enc-middle", "passive", "passive", "[a1 b1][b2 a2][a3 b3][b4 a4]"},
		{"seq", "active", "active", "[a1 a2 a3 a4 b1][b2][b3][b4]"},
		{"seq", "passive", "active", "[a1 a2 a3 a4 b1][b2][b3][b4]"},
		{"seq", "passive", "passive", "[a1 a2 a3 a4 b1][b2][b3][b4]"},
		{"seq-ov", "active", "active", "[a1 a2][b1 b2][a3 a4][b3 b4]"},
	}
	for _, c := range cases {
		src := "(" + c.op + " (p-to-p " + c.actA + " a) (p-to-p " + c.actB + " b))"
		x := mustExpand(t, mustParse(t, src))
		got := abstractExpansion(t, x, c.actA, c.actB)
		if got != c.want {
			t.Errorf("%s %s/%s:\n got  %s\n want %s", c.op, c.actA, c.actB, got, c.want)
		}
	}
}

// abstractExpansion maps each concrete transition back to its abstract
// event name (a1..a4 / b1..b4) given the activities of channels a and b.
func abstractExpansion(t *testing.T, x Expansion, actA, actB string) string {
	t.Helper()
	name := func(tr Trans) string {
		chanName := tr.Signal[:1]
		act := actA
		prefix := "a"
		if chanName == "b" {
			act = actB
			prefix = "b"
		}
		isReq := strings.HasSuffix(tr.Signal, "_r")
		var idx int
		if act == "active" {
			// active: r+ a+ r- a-
			switch {
			case isReq && tr.Rise:
				idx = 1
			case !isReq && tr.Rise:
				idx = 2
			case isReq && !tr.Rise:
				idx = 3
			default:
				idx = 4
			}
		} else {
			switch {
			case isReq && tr.Rise:
				idx = 1
			case !isReq && tr.Rise:
				idx = 2
			case isReq && !tr.Rise:
				idx = 3
			default:
				idx = 4
			}
		}
		return prefix + string(rune('0'+idx))
	}
	var sb strings.Builder
	for _, ev := range x {
		sb.WriteByte('[')
		for i, it := range ev {
			tr, ok := it.(Trans)
			if !ok {
				t.Fatalf("unexpected non-transition item %v", it)
			}
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(name(tr))
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// Table 1: the full legality matrix.
func TestTable1Matrix(t *testing.T) {
	type row struct {
		op   OpKind
		want [4]bool // a/a, a/p, p/a, p/p
	}
	rows := []row{
		{EncEarly, [4]bool{true, false, true, true}},
		{EncLate, [4]bool{false, false, true, true}},
		{EncMiddle, [4]bool{true, false, true, true}},
		{Seq, [4]bool{true, false, true, true}},
		{SeqOv, [4]bool{true, false, false, false}},
		{Mutex, [4]bool{false, false, false, true}},
	}
	combos := [4][2]Activity{{Active, Active}, {Active, Passive}, {Passive, Active}, {Passive, Passive}}
	for _, r := range rows {
		for i, c := range combos {
			if got := Legal(r.op, c[0], c[1]); got != r.want[i] {
				t.Errorf("Legal(%s, %s, %s) = %v, want %v", r.op, c[0], c[1], got, r.want[i])
			}
		}
	}
}

// Legality and expansion must agree: expansion succeeds exactly on the
// legal combinations (for non-neutral arguments).
func TestExpandMatchesLegal(t *testing.T) {
	ops := []OpKind{EncEarly, EncMiddle, EncLate, Seq, SeqOv, Mutex}
	acts := []Activity{Active, Passive}
	for _, op := range ops {
		for _, a := range acts {
			for _, b := range acts {
				e := &Op{Kind: op,
					A: &Chan{Kind: PToP, Act: a, Name: "a"},
					B: &Chan{Kind: PToP, Act: b, Name: "b"}}
				_, err := Expand(e)
				legal := Legal(op, a, b)
				if legal && err != nil {
					t.Errorf("%s %s/%s legal but expansion failed: %v", op, a, b, err)
				}
				if !legal && err == nil {
					t.Errorf("%s %s/%s illegal but expansion succeeded", op, a, b)
				}
			}
		}
	}
}

const sequencerCH = `(rep (enc-early (p-to-p passive P)
                       (seq (p-to-p active A1) (p-to-p active A2))))`

const callCH = `(rep (mutex
                  (enc-early (p-to-p passive A1) (p-to-p active B))
                  (enc-early (p-to-p passive A2) (p-to-p active B))))`

const passivatorCH = `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`

// Section 3.4: the three modelling examples must validate and expand.
func TestHandshakeComponentModels(t *testing.T) {
	for _, src := range []string{sequencerCH, callCH, passivatorCH} {
		e := mustParse(t, src)
		if err := Validate(e); err != nil {
			t.Errorf("Validate(%s): %v", src, err)
		}
		mustExpand(t, e)
	}
}

func TestSequencerExpansionShape(t *testing.T) {
	x := mustExpand(t, mustParse(t, sequencerCH))
	items := x.Flatten()
	// [label P_r+ A1_r+ A1_a+ A1_r- A1_a- A2_r+ A2_a+ A2_r- A2_a-
	//  P_a+ P_r- P_a- goto label-end]
	var trs []string
	for _, it := range items {
		if tr, ok := it.(Trans); ok {
			trs = append(trs, tr.String())
		}
	}
	want := []string{
		"(i P_r +)", "(o A1_r +)", "(i A1_a +)", "(o A1_r -)", "(i A1_a -)",
		"(o A2_r +)", "(i A2_a +)", "(o A2_r -)", "(i A2_a -)",
		"(o P_a +)", "(i P_r -)", "(o P_a -)",
	}
	if len(trs) != len(want) {
		t.Fatalf("got %d transitions %v, want %d", len(trs), trs, len(want))
	}
	for i := range want {
		if trs[i] != want[i] {
			t.Errorf("transition %d: got %s want %s", i, trs[i], want[i])
		}
	}
}

func TestCallExpansionHasChoice(t *testing.T) {
	x := mustExpand(t, mustParse(t, callCH))
	found := false
	for _, it := range x.Flatten() {
		if c, ok := it.(Choice); ok {
			found = true
			if len(c.Branches) != 2 {
				t.Fatalf("choice has %d branches, want 2", len(c.Branches))
			}
			// Each branch must start with an input (the call's request).
			for _, b := range c.Branches {
				tr, ok := b[0].(Trans)
				if !ok || tr.Dir != In || !tr.Rise {
					t.Errorf("branch starts with %v, want rising input", b[0])
				}
			}
		}
	}
	if !found {
		t.Fatal("no choice in call expansion")
	}
}

func TestPassivatorExpansion(t *testing.T) {
	x := mustExpand(t, mustParse(t, passivatorCH))
	var trs []string
	for _, it := range x.Flatten() {
		if tr, ok := it.(Trans); ok {
			trs = append(trs, tr.String())
		}
	}
	want := []string{
		"(i A_r +)", "(i B_r +)", "(o B_a +)", "(o A_a +)",
		"(i A_r -)", "(i B_r -)", "(o B_a -)", "(o A_a -)",
	}
	if strings.Join(trs, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v want %v", trs, want)
	}
}

func TestMutexRequiresPassive(t *testing.T) {
	e := mustParse(t, "(mutex (p-to-p active a) (p-to-p passive b))")
	if err := Validate(e); err == nil {
		t.Fatal("expected validation error for mutex with active argument")
	}
	if _, err := Expand(e); err == nil {
		t.Fatal("expected expansion error for mutex with active argument")
	}
}

func TestBreakOutsideLoop(t *testing.T) {
	e := mustParse(t, "(seq (p-to-p passive a) (break))")
	if err := Validate(e); err == nil {
		t.Fatal("expected validation error for break outside rep")
	}
}

func TestBreakInsideLoop(t *testing.T) {
	e := mustParse(t, "(rep (seq (p-to-p passive a) (break)))")
	if err := Validate(e); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	x := mustExpand(t, e)
	hasBGoto := false
	for _, it := range x.Flatten() {
		if _, ok := it.(BGoto); ok {
			hasBGoto = true
		}
	}
	if !hasBGoto {
		t.Fatal("no bgoto in expansion")
	}
}

func TestSeqDesugarsRight(t *testing.T) {
	e := mustParse(t, "(seq (p-to-p active c1) (p-to-p active c2) (p-to-p active c3))")
	op, ok := e.(*Op)
	if !ok || op.Kind != Seq {
		t.Fatalf("got %T", e)
	}
	inner, ok := op.B.(*Op)
	if !ok || inner.Kind != Seq {
		t.Fatalf("second argument is %T, want nested seq", op.B)
	}
}

func TestMutexDesugarsRight(t *testing.T) {
	e := mustParse(t, "(mutex (p-to-p passive c1) (p-to-p passive c2) (p-to-p passive c3))")
	op := e.(*Op)
	if op.Kind != Mutex {
		t.Fatal("not a mutex")
	}
	if inner, ok := op.B.(*Op); !ok || inner.Kind != Mutex {
		t.Fatalf("not right-nested: %T", op.B)
	}
}

func TestMuxReqExpansion(t *testing.T) {
	e := mustParse(t, "(rep (mux-req a (enc-early (p-to-p active x)) (enc-early (p-to-p active y))))")
	x := mustExpand(t, e)
	var choice *Choice
	for _, it := range x.Flatten() {
		if c, ok := it.(Choice); ok {
			choice = &c
		}
	}
	if choice == nil {
		t.Fatal("no choice")
	}
	if len(choice.Branches) != 2 {
		t.Fatalf("%d branches", len(choice.Branches))
	}
	// Branch 1: a_r1+ x_r+ x_a+ x_r- x_a- a_a+ a_r1- a_a-
	var got []string
	for _, it := range choice.Branches[0] {
		if tr, ok := it.(Trans); ok {
			got = append(got, tr.String())
		}
	}
	want := []string{"(i a_r1 +)", "(o x_r +)", "(i x_a +)", "(o x_r -)", "(i x_a -)",
		"(o a_a +)", "(i a_r1 -)", "(o a_a -)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("branch 1:\n got  %v\n want %v", got, want)
	}
}

func TestMuxAckExpansion(t *testing.T) {
	e := mustParse(t, "(mux-ack a (enc-early (p-to-p active x)) (enc-early (p-to-p active y)))")
	x := mustExpand(t, e)
	items := x.Flatten()
	// First item: the rising output request.
	tr, ok := items[0].(Trans)
	if !ok || tr.String() != "(o a_r +)" {
		t.Fatalf("first item %v", items[0])
	}
	c, ok := items[1].(Choice)
	if !ok {
		t.Fatalf("second item %T", items[1])
	}
	// Branch i must start with the distinguishing acknowledge input.
	b0 := c.Branches[0][0].(Trans)
	if b0.String() != "(i a_a1 +)" {
		t.Fatalf("branch 1 starts with %v", b0)
	}
	// And must contain the request's falling edge as an output.
	found := false
	for _, it := range c.Branches[0] {
		if tr, ok := it.(Trans); ok && tr.Signal == "a_r" && tr.Dir == Out && !tr.Rise {
			found = true
		}
	}
	if !found {
		t.Fatal("branch 1 missing (o a_r -)")
	}
}

func TestVerbChannel(t *testing.T) {
	e := mustParse(t, "(verb ((i x +)) ((o y +)) ((i x -)) ((o y -)))")
	c := e.(*Chan)
	if c.Act != Passive {
		t.Fatalf("activity %v, want passive (first transition is an input)", c.Act)
	}
	x := mustExpand(t, e)
	if x.String() != "[(i x +)][(o y +)][(i x -)][(o y -)]" {
		t.Fatalf("got %s", x)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(p-to-p active)",
		"(p-to-p sideways a)",
		"(mult-req active c)",
		"(mult-req active c x)",
		"(rep)",
		"(enc-early (p-to-p active a))",
		"(unknown-op (p-to-p active a) (p-to-p active b))",
		"(mux-ack)",
		"(mux-ack a bad-arm)",
		"(verb ((i x +)))",
		"(verb ((x +)) () () ())",
		"atom",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%s): expected error", src)
		}
	}
}

func TestPorts(t *testing.T) {
	e := mustParse(t, sequencerCH)
	ports, err := Ports(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 3 {
		t.Fatalf("got %d ports: %+v", len(ports), ports)
	}
	if ports[0].Name != "A1" || ports[0].Act != Active {
		t.Fatalf("port 0: %+v", ports[0])
	}
	if ports[2].Name != "P" || ports[2].Act != Passive {
		t.Fatalf("port 2: %+v", ports[2])
	}
}

func TestPortsMergesDuplicates(t *testing.T) {
	// The split call fragments replicate the same active channel name.
	e := mustParse(t, "(seq (p-to-p active c) (p-to-p active c))")
	ports, err := Ports(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 1 || ports[0].Name != "c" {
		t.Fatalf("%+v", ports)
	}
}

func TestPortsConflict(t *testing.T) {
	e := mustParse(t, "(seq (p-to-p passive c) (p-to-p active c))")
	if _, err := Ports(e); err == nil {
		t.Fatal("expected conflict error")
	}
}

func TestPortSignals(t *testing.T) {
	p := Port{Name: "c", Kind: PToP, Act: Active}
	sigs := p.Signals()
	if len(sigs) != 2 || sigs[0].Signal != "c_r" || sigs[0].Dir != Out || sigs[1].Dir != In {
		t.Fatalf("%+v", sigs)
	}
	m := Port{Name: "m", Kind: MultReq, Act: Passive, N: 2}
	sigs = m.Signals()
	if len(sigs) != 3 || sigs[0].Dir != In || sigs[1].Signal != "m_a1" || sigs[1].Dir != Out {
		t.Fatalf("%+v", sigs)
	}
}

func TestReplacePToP(t *testing.T) {
	e := mustParse(t, sequencerCH)
	out, n := ReplacePToP(e, "A2", &Void{})
	if n != 1 {
		t.Fatalf("replaced %d", n)
	}
	if CountPToP(out, "A2") != 0 {
		t.Fatal("A2 still present")
	}
	if CountPToP(e, "A2") != 1 {
		t.Fatal("original mutated")
	}
}

func TestCloneIndependence(t *testing.T) {
	e := mustParse(t, callCH)
	c := e.Clone()
	Walk(c, func(x Expr) {
		if ch, ok := x.(*Chan); ok {
			ch.Name = "mutated"
		}
	})
	if CountPToP(e, "B") != 2 {
		t.Fatal("clone shares nodes with original")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{sequencerCH, callCH, passivatorCH,
		"(mux-req a (enc-early (p-to-p active x)) (seq (p-to-p active y)))",
		"(rep (seq (mult-req active m 3) (break)))",
		"(verb ((i x +)) ((o y +)) ((i x -)) ((o y -)))",
	} {
		e := mustParse(t, src)
		text := Format(e)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse failed: %v\n%s", err, text)
		}
		if Format(back) != text {
			t.Fatalf("round trip mismatch:\n%s\n%s", text, Format(back))
		}
	}
}

func TestProgramParseFormat(t *testing.T) {
	p, err := ParseProgram("(program seq2 " + sequencerCH + ")")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "seq2" {
		t.Fatalf("name %q", p.Name)
	}
	text := FormatProgram(p)
	back, err := ParseProgram(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.Name != p.Name || Format(back.Body) != Format(p.Body) {
		t.Fatal("program round trip mismatch")
	}
}

func TestActivityRules(t *testing.T) {
	cases := []struct {
		src  string
		want Activity
	}{
		{"(p-to-p passive a)", Passive},
		{"(p-to-p active a)", Active},
		{"void", Neutral},
		{sequencerCH, Passive},
		{"(enc-early void (seq (p-to-p active c1) (p-to-p active c2)))", Active},
		{"(mutex (p-to-p passive a) (p-to-p passive b))", Passive},
		{"(seq-ov (p-to-p active a) (p-to-p active b))", Active},
		{"(mux-ack a (enc-early (p-to-p active x)))", Active},
		{"(mux-req a (enc-early (p-to-p active x)))", Passive},
	}
	for _, c := range cases {
		e := mustParse(t, c.src)
		if got := e.Activity(); got != c.want {
			t.Errorf("Activity(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestRepLabelsUnique(t *testing.T) {
	e := mustParse(t, "(seq (rep (seq (p-to-p passive a) (break))) (rep (seq (p-to-p passive b) (break))))")
	// Two loops in one program need distinct labels.
	x, err := Expand(e)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	for _, it := range x.Flatten() {
		if l, ok := it.(Label); ok {
			labels[l.Name]++
		}
	}
	for name, n := range labels {
		if n != 1 {
			t.Errorf("label %s appears %d times", name, n)
		}
	}
	if len(labels) != 4 {
		t.Errorf("got %d labels, want 4 (start+end per loop): %v", len(labels), labels)
	}
}

func TestItemStrings(t *testing.T) {
	items := []Item{
		Label{Name: "L"},
		Goto{Name: "L"},
		BGoto{Name: "E"},
		Choice{Branches: [][]Item{{Trans{Signal: "a", Dir: In, Rise: true}}}},
	}
	wants := []string{"(label L)", "(goto L)", "(bgoto E)", "(choice ((i a +)))"}
	for i, it := range items {
		if it.String() != wants[i] {
			t.Errorf("got %q want %q", it.String(), wants[i])
		}
	}
}

func TestMuxClone(t *testing.T) {
	m := mustParse(t, "(mux-ack a (enc-early (p-to-p active x)))").(*MuxAck)
	c := m.Clone().(*MuxAck)
	c.Arms[0].Arg.(*Chan).Name = "mutated"
	if m.Arms[0].Arg.(*Chan).Name != "x" {
		t.Fatal("mux clone shares arms")
	}
	r := mustParse(t, "(mux-req a (enc-early (p-to-p active x)))").(*MuxReq)
	rc := r.Clone().(*MuxReq)
	rc.Arms[0].Arg.(*Chan).Name = "mutated"
	if r.Arms[0].Arg.(*Chan).Name != "x" {
		t.Fatal("mux-req clone shares arms")
	}
}

func TestErrorStrings(t *testing.T) {
	e := &ExpandError{Op: Mutex, ActA: Active, ActB: Passive}
	if !strings.Contains(e.Error(), "mutex") {
		t.Fatalf("%v", e)
	}
	v := &ValidationError{Op: SeqOv, ActA: Passive, ActB: Passive, Path: "body"}
	if !strings.Contains(v.Error(), "Table 1") {
		t.Fatalf("%v", v)
	}
}
