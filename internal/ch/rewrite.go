package ch

import (
	"fmt"
	"sort"
)

// Walk calls f on e and every sub-expression, pre-order.
func Walk(e Expr, f func(Expr)) {
	f(e)
	switch n := e.(type) {
	case *Rep:
		Walk(n.Body, f)
	case *Op:
		Walk(n.A, f)
		Walk(n.B, f)
	case *MuxAck:
		for _, arm := range n.Arms {
			Walk(arm.Arg, f)
		}
	case *MuxReq:
		for _, arm := range n.Arms {
			Walk(arm.Arg, f)
		}
	}
}

// Port describes one channel of a controller's interface.
type Port struct {
	Name string
	Kind ChanKind
	Act  Activity
	N    int // wire multiplicity (mult/mux); 0 for p-to-p
	Mux  bool
}

// Ports returns the channel interface of an expression: every named
// channel it declares, sorted by name. Void channels have no interface.
// Duplicate declarations of the same name (e.g. the replicated active
// channel of a split call component) are merged and must agree.
func Ports(e Expr) ([]Port, error) {
	seen := map[string]Port{}
	var err error
	Walk(e, func(x Expr) {
		if err != nil {
			return
		}
		var p Port
		switch n := x.(type) {
		case *Chan:
			if n.Kind == Verb {
				return
			}
			p = Port{Name: n.Name, Kind: n.Kind, Act: n.Act, N: n.N}
		case *MuxAck:
			p = Port{Name: n.Name, Act: Active, N: len(n.Arms), Mux: true}
		case *MuxReq:
			p = Port{Name: n.Name, Act: Passive, N: len(n.Arms), Mux: true}
		default:
			return
		}
		if prev, ok := seen[p.Name]; ok {
			if prev != p {
				err = fmt.Errorf("ch: conflicting declarations for channel %q: %+v vs %+v", p.Name, prev, p)
			}
			return
		}
		seen[p.Name] = p
	})
	if err != nil {
		return nil, err
	}
	ports := make([]Port, 0, len(seen))
	for _, p := range seen {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i].Name < ports[j].Name })
	return ports, nil
}

// Signals lists the wire names of a port with their directions as seen
// by this controller.
func (p Port) Signals() []Trans {
	reqDir, ackDir := In, Out
	if p.Act == Active {
		reqDir, ackDir = Out, In
	}
	var out []Trans
	switch {
	case p.Mux && p.Act == Active: // mux-ack: 1 req out, N acks in
		out = append(out, Trans{Signal: p.Name + "_r", Dir: Out})
		for i := 1; i <= p.N; i++ {
			out = append(out, Trans{Signal: fmt.Sprintf("%s_a%d", p.Name, i), Dir: In})
		}
	case p.Mux: // mux-req: N reqs in, 1 ack out
		for i := 1; i <= p.N; i++ {
			out = append(out, Trans{Signal: fmt.Sprintf("%s_r%d", p.Name, i), Dir: In})
		}
		out = append(out, Trans{Signal: p.Name + "_a", Dir: Out})
	case p.Kind == PToP:
		out = append(out,
			Trans{Signal: p.Name + "_r", Dir: reqDir},
			Trans{Signal: p.Name + "_a", Dir: ackDir})
	case p.Kind == MultReq:
		out = append(out, Trans{Signal: p.Name + "_r", Dir: reqDir})
		for i := 1; i <= p.N; i++ {
			out = append(out, Trans{Signal: fmt.Sprintf("%s_a%d", p.Name, i), Dir: ackDir})
		}
	case p.Kind == MultAck:
		for i := 1; i <= p.N; i++ {
			out = append(out, Trans{Signal: fmt.Sprintf("%s_r%d", p.Name, i), Dir: reqDir})
		}
		out = append(out, Trans{Signal: p.Name + "_a", Dir: ackDir})
	}
	return out
}

// CountPToP returns how many p-to-p declarations of the given name
// appear in the expression.
func CountPToP(e Expr, name string) int {
	n := 0
	Walk(e, func(x Expr) {
		if c, ok := x.(*Chan); ok && c.Kind == PToP && c.Name == name {
			n++
		}
	})
	return n
}

// ReplacePToP returns a copy of e in which every p-to-p channel
// declaration named name is replaced by a clone of with. It reports how
// many replacements were made.
func ReplacePToP(e Expr, name string, with Expr) (Expr, int) {
	count := 0
	var rec func(Expr) Expr
	rec = func(x Expr) Expr {
		switch n := x.(type) {
		case *Chan:
			if n.Kind == PToP && n.Name == name {
				count++
				return with.Clone()
			}
			return n.Clone()
		case *Rep:
			return &Rep{Body: rec(n.Body)}
		case *Op:
			return &Op{Kind: n.Kind, A: rec(n.A), B: rec(n.B)}
		case *MuxAck:
			arms := make([]MuxArm, len(n.Arms))
			for i, a := range n.Arms {
				arms[i] = MuxArm{Op: a.Op, Arg: rec(a.Arg)}
			}
			return &MuxAck{Name: n.Name, Arms: arms}
		case *MuxReq:
			arms := make([]MuxArm, len(n.Arms))
			for i, a := range n.Arms {
				arms[i] = MuxArm{Op: a.Op, Arg: rec(a.Arg)}
			}
			return &MuxReq{Name: n.Name, Arms: arms}
		default:
			return x.Clone()
		}
	}
	out := rec(e)
	return out, count
}
