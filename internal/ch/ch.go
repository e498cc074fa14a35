// Package ch implements the CH control specification language of
// Chelcea et al., "A Burst-Mode Oriented Back-End for the Balsa
// Synthesis System" (DATE 2002), Section 3.
//
// CH is an intermediate-level, channel-based language for describing a
// single asynchronous controller. A program is an expression tree built
// from channel declarations and operators. Every expression has an
// "activity" (passive, active, or neutral) and a four-phase handshake
// expansion consisting of exactly four events, where an event is a
// sequence of signal transitions plus control keywords (labels, gotos
// and external-input choice).
//
// The expansions follow Table 2 of the paper; the "Burst-Mode aware"
// restrictions of Table 1 are implemented in legal.go.
package ch

import "fmt"

// Pos is a source position in CH concrete syntax: 1-based line and
// column of the node's opening token. The zero Pos marks nodes built
// programmatically (clustering rewrites, tests) rather than parsed.
type Pos struct {
	Line, Col int
}

// IsValid reports whether the position came from real source.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Fragment implements diag.Loc: source positions attach tightly to the
// file prefix ("file.ch:3:5:"); invalid positions render nothing.
func (p Pos) Fragment() (string, bool) {
	if !p.IsValid() {
		return "", true
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col), true
}

// Key implements diag.Loc: diagnostics sort by line, then column.
func (p Pos) Key() (int, int) { return p.Line, p.Col }

// ExprPos returns the source position of an expression node (the zero
// Pos for programmatically built nodes).
func ExprPos(e Expr) Pos {
	switch n := e.(type) {
	case *Chan:
		return n.Pos
	case *Void:
		return n.Pos
	case *Break:
		return n.Pos
	case *Rep:
		return n.Pos
	case *Op:
		return n.Pos
	case *MuxAck:
		return n.Pos
	case *MuxReq:
		return n.Pos
	}
	return Pos{}
}

// Activity is the handshake activity of a channel or expression.
// Passive expressions wait for an input request; active expressions
// initiate with an output request. Neutral is used for void channels
// and break, which contribute no transitions of their own.
type Activity int

const (
	Passive Activity = iota
	Active
	Neutral
)

func (a Activity) String() string {
	switch a {
	case Passive:
		return "passive"
	case Active:
		return "active"
	case Neutral:
		return "neutral"
	}
	return fmt.Sprintf("Activity(%d)", int(a))
}

// Dir is the direction of a signal transition as seen by the controller.
type Dir int

const (
	In Dir = iota
	Out
)

func (d Dir) String() string {
	if d == In {
		return "i"
	}
	return "o"
}

// Trans is a single signal transition: the terminal symbol of a
// four-phase expansion, e.g. "(o a_r +)".
type Trans struct {
	Signal string
	Dir    Dir
	Rise   bool
}

func (t Trans) String() string {
	edge := "-"
	if t.Rise {
		edge = "+"
	}
	return fmt.Sprintf("(%s %s %s)", t.Dir, t.Signal, edge)
}

// Item is one element of an expansion event: a transition, a control
// keyword inserted by the expansion algorithm (label, goto, bgoto), or
// an external-input choice between alternative item sequences.
type Item interface {
	isItem()
	String() string
}

func (Trans) isItem() {}

// Label marks a control-flow join point generated for rep loops.
type Label struct{ Name string }

func (l Label) isItem()        {}
func (l Label) String() string { return fmt.Sprintf("(label %s)", l.Name) }

// Goto transfers control back to a label (loop repetition).
type Goto struct{ Name string }

func (g Goto) isItem()        {}
func (g Goto) String() string { return fmt.Sprintf("(goto %s)", g.Name) }

// BGoto transfers control out of the innermost loop (break). It is
// handled differently from Goto by the Burst-Mode builder: its target
// label follows the loop rather than starting it.
type BGoto struct{ Name string }

func (b BGoto) isItem()        {}
func (b BGoto) String() string { return fmt.Sprintf("(bgoto %s)", b.Name) }

// Choice is a mutually-exclusive external input choice between
// alternative sequences. The first transition of every branch must be
// an input; the environment resolves the choice.
type Choice struct{ Branches [][]Item }

func (c Choice) isItem() {}

func (c Choice) String() string {
	s := "(choice"
	for _, b := range c.Branches {
		s += " ("
		for i, it := range b {
			if i > 0 {
				s += " "
			}
			s += it.String()
		}
		s += ")"
	}
	return s + ")"
}

// Event is one of the four atomic events of a four-phase expansion.
type Event []Item

func (e Event) String() string {
	s := "["
	for i, it := range e {
		if i > 0 {
			s += " "
		}
		s += it.String()
	}
	return s + "]"
}

// Expansion is a four-phase handshake expansion: exactly four events,
// any of which may be empty.
type Expansion [4]Event

func (x Expansion) String() string {
	return x[0].String() + x[1].String() + x[2].String() + x[3].String()
}

// Flatten concatenates the four events into one linear item sequence:
// the "intermediate form" of Section 3.6.
func (x Expansion) Flatten() []Item {
	n := 0
	for _, e := range x {
		n += len(e)
	}
	out := make([]Item, 0, n)
	for _, e := range x {
		out = append(out, e...)
	}
	return out
}

// OpKind identifies one of the six interleaving operators (Section 3.3).
type OpKind int

const (
	EncEarly OpKind = iota
	EncMiddle
	EncLate
	Seq
	SeqOv
	Mutex
)

var opNames = [...]string{"enc-early", "enc-middle", "enc-late", "seq", "seq-ov", "mutex"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ChanKind identifies the channel declaration forms (Section 3.1).
//
// Note on naming: the paper's bullet headings for mult-ack and mult-req
// are swapped relative to the syntax keywords they introduce (the
// "mult-ack" bullet gives the syntax "(mult-req activity name n)" and
// vice versa). We follow the syntax keywords and the worked example:
// (mult-req active c 2) expands with ONE request wire and n acknowledge
// wires; mult-ack has n request wires and one acknowledge wire.
type ChanKind int

const (
	PToP    ChanKind = iota // two wires: request + acknowledge
	MultReq                 // one request wire, N acknowledge wires
	MultAck                 // N request wires, one acknowledge wire
	Verb                    // fully user-specified events
)

func (k ChanKind) String() string {
	switch k {
	case PToP:
		return "p-to-p"
	case MultReq:
		return "mult-req"
	case MultAck:
		return "mult-ack"
	case Verb:
		return "verb"
	}
	return fmt.Sprintf("ChanKind(%d)", int(k))
}

// Expr is a CH expression: a channel declaration or an operator
// application.
type Expr interface {
	// Activity reports the expression's handshake activity.
	Activity() Activity
	// Clone returns a deep copy of the expression.
	Clone() Expr
	isExpr()
}

// Chan is a channel declaration (p-to-p, mult-req, mult-ack or verb).
type Chan struct {
	Kind ChanKind
	Act  Activity
	Name string
	N    int      // wire multiplicity for MultReq/MultAck
	Ev   [4]Event // Verb only: the user-specified events
	Pos  Pos
}

func (c *Chan) isExpr()            {}
func (c *Chan) Activity() Activity { return c.Act }

// Clone returns a deep copy.
func (c *Chan) Clone() Expr {
	d := *c
	for i, e := range c.Ev {
		d.Ev[i] = append(Event(nil), e...)
	}
	return &d
}

// Void is the void channel: all four events are empty and the activity
// is neutral. Void channels appear only during optimization, standing
// in for a hidden activation channel.
type Void struct{ Pos Pos }

func (Void) isExpr()            {}
func (Void) Activity() Activity { return Neutral }

// Clone returns a deep copy.
func (v *Void) Clone() Expr { return &Void{Pos: v.Pos} }

// MuxArm is one alternative of a mux-ack or mux-req channel: an
// interleaving operator applied to the channel's per-branch events
// (implicit first argument) and the arm's expression (second argument).
type MuxArm struct {
	Op  OpKind
	Arg Expr
}

// MuxAck is a mux-ack channel (always active): one request wire, N
// acknowledge wires; the environment acknowledges on exactly one wire,
// selecting which arm executes.
//
// Note: the paper's printed expansion for mux_ack swaps the i/o marks
// on the channel's own wires (it shows the acknowledge as an output and
// the request's falling edge as an input). Since the channel is active,
// requests must be outputs and acknowledges inputs — which is also what
// the choice semantics require (an external choice must be resolved by
// an input). We implement the protocol-consistent directions.
type MuxAck struct {
	Name string
	Arms []MuxArm
	Pos  Pos
}

func (m *MuxAck) isExpr()            {}
func (m *MuxAck) Activity() Activity { return Active }

// Clone returns a deep copy.
func (m *MuxAck) Clone() Expr {
	d := &MuxAck{Name: m.Name, Arms: make([]MuxArm, len(m.Arms)), Pos: m.Pos}
	for i, a := range m.Arms {
		d.Arms[i] = MuxArm{Op: a.Op, Arg: a.Arg.Clone()}
	}
	return d
}

// MuxReq is a mux-req channel (always passive): N request wires, one
// acknowledge wire; the environment requests on exactly one wire,
// selecting which arm executes.
type MuxReq struct {
	Name string
	Arms []MuxArm
	Pos  Pos
}

func (m *MuxReq) isExpr()            {}
func (m *MuxReq) Activity() Activity { return Passive }

// Clone returns a deep copy.
func (m *MuxReq) Clone() Expr {
	d := &MuxReq{Name: m.Name, Arms: make([]MuxArm, len(m.Arms)), Pos: m.Pos}
	for i, a := range m.Arms {
		d.Arms[i] = MuxArm{Op: a.Op, Arg: a.Arg.Clone()}
	}
	return d
}

// Rep repeats its body forever (unless interrupted by Break). Its
// expansion is degenerate: one non-empty event followed by three empty
// ones.
type Rep struct {
	Body Expr
	Pos  Pos
}

func (r *Rep) isExpr()            {}
func (r *Rep) Activity() Activity { return r.Body.Activity() }

// Clone returns a deep copy.
func (r *Rep) Clone() Expr { return &Rep{Body: r.Body.Clone(), Pos: r.Pos} }

// Break ends the innermost loop. Neither passive nor active.
type Break struct{ Pos Pos }

func (Break) isExpr()            {}
func (Break) Activity() Activity { return Neutral }

// Clone returns a deep copy.
func (b *Break) Clone() Expr { return &Break{Pos: b.Pos} }

// Op is an interleaving operator applied to two arguments.
type Op struct {
	Kind OpKind
	A, B Expr
	Pos  Pos
}

func (o *Op) isExpr() {}

// Activity implements the activity rules of Section 3.3: enclosures and
// sequencing take the first argument's activity; seq-ov is active;
// mutex is passive. A neutral first argument (void, after hiding)
// delegates to the second argument, since the compound's first
// transition then comes from it.
func (o *Op) Activity() Activity {
	switch o.Kind {
	case Mutex:
		return Passive
	case SeqOv:
		return Active
	default:
		if a := o.A.Activity(); a != Neutral {
			return a
		}
		return o.B.Activity()
	}
}

// Clone returns a deep copy.
func (o *Op) Clone() Expr { return &Op{Kind: o.Kind, A: o.A.Clone(), B: o.B.Clone(), Pos: o.Pos} }

// Program is a named CH program: the full behavior of one controller.
type Program struct {
	Name string
	Body Expr
	Pos  Pos
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program { return &Program{Name: p.Name, Body: p.Body.Clone(), Pos: p.Pos} }

// CallShape recognizes the n-way call of Section 4.2:
// (rep (mutex (enc-early (p-to-p passive p_i) (p-to-p active c)) ...)),
// at least two arms in a mutex tree, all sharing the one active
// channel c. It returns the passive channels in arm order and c. This
// is the shape T2 splits, hclib builds as its call circuit and chlint
// reports as a T2 candidate (CH101).
func CallShape(p *Program) (passives []string, active string, ok bool) {
	rep, isRep := p.Body.(*Rep)
	if !isRep {
		return nil, "", false
	}
	var walk func(e Expr) bool
	walk = func(e Expr) bool {
		op, isOp := e.(*Op)
		if !isOp {
			return false
		}
		if op.Kind == Mutex {
			return walk(op.A) && walk(op.B)
		}
		pc, okP := op.A.(*Chan)
		ac, okA := op.B.(*Chan)
		if op.Kind != EncEarly || !okP || !okA || pc.Kind != PToP || ac.Kind != PToP ||
			pc.Act != Passive || ac.Act != Active || active != "" && ac.Name != active {
			return false
		}
		active = ac.Name
		passives = append(passives, pc.Name)
		return true
	}
	if !walk(rep.Body) || len(passives) < 2 {
		return nil, "", false
	}
	return passives, active, true
}
