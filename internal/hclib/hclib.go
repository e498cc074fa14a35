// Package hclib provides hand-optimized gate-level implementations of
// the standard control handshake components — the counterpart of
// Balsa's manually designed component library, which the paper uses as
// the unoptimized baseline ("the original Balsa control components are
// manually designed and they have highly-optimized implementations",
// Section 6).
//
// Each circuit implements exactly the component's CH/Burst-Mode
// protocol (Fig 3); the package tests verify every template against
// the compiled specification with a gate-level spec driver.
//
// Circuits (four-phase, broad handshakes):
//
//	sequencer-n:  a chain of Muller C-elements; stage i issues its
//	              request while the previous stage's C-element holds
//	              the phase (the classical S-element cascade):
//	                 y_i  = C(Ai_a, e_i)
//	                 Ai_r = e_i & !y_i
//	                 e_1  = P_r,  e_{i+1} = y_i & !Ai_a
//	                 P_a  = y_n & !An_a & P_r
//	call-n:       g = OR(Ai_r...), w = C(B_a, g), B_r = g & !w,
//	              Ai_a = w & !B_a & Ai_r
//	concur-n:     request fanout, C-element join of acknowledges
//	passivator:   single C-element
//	fork (mult-req): request fanout, C-element join
package hclib

import (
	"fmt"

	"balsabm/internal/ch"
	"balsabm/internal/gates"
)

// Build returns a hand-optimized gate netlist for the component if its
// CH program matches a library shape, along with true; otherwise
// (nil, false) and the caller falls back to synthesis.
func Build(p *ch.Program) (*gates.Netlist, bool) {
	if act, subs, ok := sequencerShape(p); ok && distinct(act, subs) {
		return sequencer(p.Name, act, subs), true
	}
	if ins, out, ok := ch.CallShape(p); ok {
		return call(p.Name, ins, out), true
	}
	if act, subs, ok := concurShape(p); ok && distinct(act, subs) {
		return concur(p.Name, act, subs), true
	}
	if a, b, ok := passivatorShape(p); ok {
		return passivator(p.Name, a, b), true
	}
	if act, out, n, ok := forkShape(p); ok {
		return fork(p.Name, act, out, n), true
	}
	return nil, false
}

// --- shape recognizers -------------------------------------------------

// distinct reports whether the activation channel and the
// sub-channels are pairwise distinct. The sequencer and concur
// circuits give each sub-channel its own request driver, so a repeated
// channel would be driven twice; such a component is left to
// synthesis. The call circuit shares its active channel by design and
// does not ask.
func distinct(act string, subs []string) bool {
	for i, s := range subs {
		if s == act {
			return false
		}
		for _, t := range subs[:i] {
			if s == t {
				return false
			}
		}
	}
	return true
}

func pToP(e ch.Expr, act ch.Activity) (string, bool) {
	c, ok := e.(*ch.Chan)
	if !ok || c.Kind != ch.PToP || c.Act != act {
		return "", false
	}
	return c.Name, true
}

// sequencerShape matches (rep (enc-early (p-to-p passive act) seq-chain)).
func sequencerShape(p *ch.Program) (act string, subs []string, ok bool) {
	rep, isRep := p.Body.(*ch.Rep)
	if !isRep {
		return "", nil, false
	}
	op, isOp := rep.Body.(*ch.Op)
	if !isOp || op.Kind != ch.EncEarly {
		return "", nil, false
	}
	act, ok = pToP(op.A, ch.Passive)
	if !ok {
		return "", nil, false
	}
	e := op.B
	for {
		if name, isChan := pToP(e, ch.Active); isChan {
			subs = append(subs, name)
			return act, subs, true
		}
		seq, isSeq := e.(*ch.Op)
		if !isSeq || seq.Kind != ch.Seq {
			return "", nil, false
		}
		name, isChan := pToP(seq.A, ch.Active)
		if !isChan {
			return "", nil, false
		}
		subs = append(subs, name)
		e = seq.B
	}
}

// concurShape matches (rep (enc-early (p-to-p passive act) enc-middle chain)).
func concurShape(p *ch.Program) (act string, subs []string, ok bool) {
	rep, isRep := p.Body.(*ch.Rep)
	if !isRep {
		return "", nil, false
	}
	op, isOp := rep.Body.(*ch.Op)
	if !isOp || op.Kind != ch.EncEarly {
		return "", nil, false
	}
	act, ok = pToP(op.A, ch.Passive)
	if !ok {
		return "", nil, false
	}
	e := op.B
	for {
		if name, isChan := pToP(e, ch.Active); isChan {
			subs = append(subs, name)
			if len(subs) < 2 {
				return "", nil, false
			}
			return act, subs, true
		}
		mid, isOp := e.(*ch.Op)
		if !isOp || mid.Kind != ch.EncMiddle {
			return "", nil, false
		}
		name, isChan := pToP(mid.A, ch.Active)
		if !isChan {
			return "", nil, false
		}
		subs = append(subs, name)
		e = mid.B
	}
}

// passivatorShape matches (rep (enc-middle (p-to-p passive a) (p-to-p passive b))).
func passivatorShape(p *ch.Program) (a, b string, ok bool) {
	rep, isRep := p.Body.(*ch.Rep)
	if !isRep {
		return "", "", false
	}
	op, isOp := rep.Body.(*ch.Op)
	if !isOp || op.Kind != ch.EncMiddle {
		return "", "", false
	}
	a, okA := pToP(op.A, ch.Passive)
	b, okB := pToP(op.B, ch.Passive)
	if !okA || !okB {
		return "", "", false
	}
	return a, b, true
}

// forkShape matches (rep (enc-early (p-to-p passive act) (mult-req active out n))).
func forkShape(p *ch.Program) (act, out string, n int, ok bool) {
	rep, isRep := p.Body.(*ch.Rep)
	if !isRep {
		return "", "", 0, false
	}
	op, isOp := rep.Body.(*ch.Op)
	if !isOp || op.Kind != ch.EncEarly {
		return "", "", 0, false
	}
	act, ok = pToP(op.A, ch.Passive)
	if !ok {
		return "", "", 0, false
	}
	c, isChan := op.B.(*ch.Chan)
	if !isChan || c.Kind != ch.MultReq || c.Act != ch.Active {
		return "", "", 0, false
	}
	return act, c.Name, c.N, true
}

// --- circuit builders ---------------------------------------------------

// inverted adds (or reuses) an inverter for a net.
type circuit struct {
	nl  *gates.Netlist
	inv map[int]int
}

func newCircuit(name string) *circuit {
	return &circuit{nl: gates.New(name), inv: map[int]int{}}
}

func (c *circuit) not(net int) int {
	if n, ok := c.inv[net]; ok {
		return n
	}
	n := c.nl.Fresh("n")
	c.nl.AddInstance("INV", []int{net}, n, 0)
	c.inv[net] = n
	return n
}

// andN places an AND gate of 2..4 inputs (cascading beyond 4).
func (c *circuit) and(ins ...int) int {
	for len(ins) > 4 {
		t := c.nl.Fresh("t")
		c.nl.AddInstance("AND4", ins[:4], t, 0)
		ins = append([]int{t}, ins[4:]...)
	}
	if len(ins) == 1 {
		return ins[0]
	}
	out := c.nl.Fresh("a")
	c.nl.AddInstance(fmt.Sprintf("AND%d", len(ins)), ins, out, 0)
	return out
}

func (c *circuit) or(ins ...int) int {
	for len(ins) > 4 {
		t := c.nl.Fresh("t")
		c.nl.AddInstance("OR4", ins[:4], t, 0)
		ins = append([]int{t}, ins[4:]...)
	}
	if len(ins) == 1 {
		return ins[0]
	}
	out := c.nl.Fresh("o")
	c.nl.AddInstance(fmt.Sprintf("OR%d", len(ins)), ins, out, 0)
	return out
}

// sequencer builds the C-element cascade sequencer. Every stage enable
// is gated by the activation request, so the whole cascade resets in
// parallel one C-element delay after P_r falls (the standard
// return-to-zero timing assumption of hand libraries: the environment
// does not re-activate within a couple of gate delays).
func sequencer(name, act string, subs []string) *gates.Netlist {
	c := newCircuit(name)
	pr := c.nl.Net(act + "_r")
	c.nl.Inputs = append(c.nl.Inputs, pr)
	e := pr
	var lastY, lastAck int
	for i, sub := range subs {
		ack := c.nl.Net(sub + "_a")
		c.nl.Inputs = append(c.nl.Inputs, ack)
		y := c.nl.Fresh("y")
		c.nl.AddInstance("C2", []int{ack, e}, y, 0)
		req := c.nl.Net(sub + "_r")
		c.nl.Outputs = append(c.nl.Outputs, req)
		c.nl.AddInstance("AND2", []int{e, c.not(y)}, req, 0)
		if i < len(subs)-1 {
			e = c.and(y, c.not(ack), pr)
		}
		lastY, lastAck = y, ack
	}
	pa := c.nl.Net(act + "_a")
	c.nl.Outputs = append(c.nl.Outputs, pa)
	c.nl.AddInstance("AND3", []int{lastY, c.not(lastAck), pr}, pa, 0)
	return c.nl
}

// call builds the OR/C-element call.
func call(name string, ins []string, out string) *gates.Netlist {
	c := newCircuit(name)
	var reqs []int
	for _, in := range ins {
		r := c.nl.Net(in + "_r")
		c.nl.Inputs = append(c.nl.Inputs, r)
		reqs = append(reqs, r)
	}
	ba := c.nl.Net(out + "_a")
	c.nl.Inputs = append(c.nl.Inputs, ba)
	g := c.or(reqs...)
	w := c.nl.Fresh("w")
	c.nl.AddInstance("C2", []int{ba, g}, w, 0)
	br := c.nl.Net(out + "_r")
	c.nl.Outputs = append(c.nl.Outputs, br)
	c.nl.AddInstance("AND2", []int{g, c.not(w)}, br, 0)
	for i, in := range ins {
		a := c.nl.Net(in + "_a")
		c.nl.Outputs = append(c.nl.Outputs, a)
		c.nl.AddInstance("AND3", []int{w, c.not(ba), reqs[i]}, a, 0)
	}
	return c.nl
}

// concur builds the parallel component: each child gets a private
// phase C-element (request drops when its acknowledge arrives; the
// child is "done" when its acknowledge has fallen again); the
// activation acknowledge rises when every child has completed its full
// handshake — the broad enclosure the CH spec requires.
func concur(name, act string, subs []string) *gates.Netlist {
	c := newCircuit(name)
	pr := c.nl.Net(act + "_r")
	c.nl.Inputs = append(c.nl.Inputs, pr)
	var dones []int
	for _, sub := range subs {
		ack := c.nl.Net(sub + "_a")
		c.nl.Inputs = append(c.nl.Inputs, ack)
		s := c.nl.Fresh("s")
		c.nl.AddInstance("C2", []int{ack, pr}, s, 0)
		req := c.nl.Net(sub + "_r")
		c.nl.Outputs = append(c.nl.Outputs, req)
		c.nl.AddInstance("AND2", []int{pr, c.not(s)}, req, 0)
		dones = append(dones, c.and(s, c.not(ack)))
	}
	pa := c.nl.Net(act + "_a")
	c.nl.Outputs = append(c.nl.Outputs, pa)
	c.nl.AddInstance("BUF", []int{c.and(append(dones, pr)...)}, pa, 0)
	return c.nl
}

// passivator is a single C-element driving both acknowledges.
func passivator(name, a, b string) *gates.Netlist {
	c := newCircuit(name)
	ar, br := c.nl.Net(a+"_r"), c.nl.Net(b+"_r")
	c.nl.Inputs = append(c.nl.Inputs, ar, br)
	aa, bb := c.nl.Net(a+"_a"), c.nl.Net(b+"_a")
	c.nl.Outputs = append(c.nl.Outputs, aa, bb)
	j := c.nl.Fresh("j")
	c.nl.AddInstance("C2", []int{ar, br}, j, 0)
	c.nl.AddInstance("BUF", []int{j}, aa, 0)
	c.nl.AddInstance("BUF", []int{j}, bb, 0)
	return c.nl
}

// fork drives the shared request of a mult-req channel: the request
// drops once all acknowledges are up; the activation acknowledge rises
// once they are all down again (full broad enclosure).
func fork(name, act, out string, n int) *gates.Netlist {
	c := newCircuit(name)
	pr := c.nl.Net(act + "_r")
	c.nl.Inputs = append(c.nl.Inputs, pr)
	var acks []int
	for i := 1; i <= n; i++ {
		a := c.nl.Net(fmt.Sprintf("%s_a%d", out, i))
		c.nl.Inputs = append(c.nl.Inputs, a)
		acks = append(acks, a)
	}
	allUp := c.and(acks...)
	var ackInvs []int
	for _, a := range acks {
		ackInvs = append(ackInvs, c.not(a))
	}
	allDown := c.and(ackInvs...)
	s := c.nl.Fresh("s")
	c.nl.AddInstance("C2", []int{allUp, pr}, s, 0)
	req := c.nl.Net(out + "_r")
	c.nl.Outputs = append(c.nl.Outputs, req)
	c.nl.AddInstance("AND2", []int{pr, c.not(s)}, req, 0)
	pa := c.nl.Net(act + "_a")
	c.nl.Outputs = append(c.nl.Outputs, pa)
	c.nl.AddInstance("AND3", []int{s, allDown, pr}, pa, 0)
	return c.nl
}
