// Package hc models handshake-component netlists: the intermediate
// representation balsa-c produces by syntax-directed translation (the
// paper's ".sbreeze" netlists of Fig 1). A netlist mixes control
// components (sequencers, concurs, calls — dataless) and datapath
// components (variables, transferrers, function units, selectors,
// memories). The back-end splits it: control components become CH
// programs (package chmap) and are optimized and synthesized; datapath
// components are instantiated behaviorally (package dpath).
package hc

import (
	"fmt"
	"strings"

	"balsabm/internal/chmap"
	"balsabm/internal/core"
	"balsabm/internal/dpath"
)

// Kind names for components.
const (
	KSequencer = "sequencer"
	KConcur    = "concur"
	KCall      = "call"
	KVariable  = "variable"
	KFetch     = "fetch"
	KFunc      = "func"
	KConst     = "const"
	KCaseSel   = "casesel"
	KContinue  = "continue"
	KMemory    = "memory"
	KMemRead   = "memread"
	KMemWrite  = "memwrite"
)

// Component is one handshake component.
type Component struct {
	Kind string
	Name string

	// Control fields.
	Act  string   // activation channel (passive side)
	Subs []string // ordered sub-channels (active side)

	// Datapath fields.
	Width int
	Value uint64   // const
	Op    string   // func operator
	Write string   // variable write channel
	Reads []string // variable read channels
	Src   string   // fetch source (pull)
	Dst   string   // fetch destination (push)
	Out   string   // func/const served pull channel
	Ins   []string // func inputs (pull)
	Sel   string   // casesel selector channel
	Outs  []string // casesel branch activations
	Size  int      // memory words
	Mem   string   // memread/memwrite: memory name
	Addr  string   // memread/memwrite: address pull channel
	Data  string   // memwrite: data pull channel
}

// Netlist is a handshake-component netlist for one design.
type Netlist struct {
	Name       string
	Components []*Component
}

// Add appends a component.
func (n *Netlist) Add(c *Component) { n.Components = append(n.Components, c) }

// IsControl reports whether the component belongs to the control part.
func (c *Component) IsControl() bool {
	switch c.Kind {
	case KSequencer, KConcur, KCall:
		return true
	}
	return false
}

// Control extracts the control part as a CH netlist, using the
// Balsa-to-CH templates of package chmap.
func (n *Netlist) Control() (*core.Netlist, error) {
	out := &core.Netlist{}
	for _, c := range n.Components {
		switch c.Kind {
		case KSequencer:
			if len(c.Subs) == 0 {
				return nil, fmt.Errorf("hc: %s: sequencer without sub-channels", c.Name)
			}
			out.Components = append(out.Components, chmap.Sequencer(c.Name, c.Act, c.Subs...))
		case KConcur:
			out.Components = append(out.Components, chmap.Concur(c.Name, c.Act, c.Subs...))
		case KCall:
			if len(c.Subs) < 2 {
				return nil, fmt.Errorf("hc: %s: call needs at least two call sites", c.Name)
			}
			out.Components = append(out.Components, chmap.Call(c.Name, c.Subs, c.Out))
		}
	}
	return out, nil
}

// FuncOps is the operator table shared by the compiler and the
// datapath instantiation. Each operator computes on full uint64 values;
// the result is masked to the component width by Build.
var FuncOps = map[string]func(ins []uint64) uint64{
	"add": func(ins []uint64) uint64 { return ins[0] + ins[1] },
	"sub": func(ins []uint64) uint64 { return ins[0] - ins[1] },
	"and": func(ins []uint64) uint64 { return ins[0] & ins[1] },
	"or":  func(ins []uint64) uint64 { return ins[0] | ins[1] },
	"xor": func(ins []uint64) uint64 { return ins[0] ^ ins[1] },
	"shl": func(ins []uint64) uint64 { return ins[0] << (ins[1] & 63) },
	"shr": func(ins []uint64) uint64 { return ins[0] >> (ins[1] & 63) },
	"eq": func(ins []uint64) uint64 {
		if ins[0] == ins[1] {
			return 1
		}
		return 0
	},
	"ne": func(ins []uint64) uint64 {
		if ins[0] != ins[1] {
			return 1
		}
		return 0
	},
	"lt": func(ins []uint64) uint64 {
		if ins[0] < ins[1] {
			return 1
		}
		return 0
	},
	"not": func(ins []uint64) uint64 { return ^ins[0] },
	"sext13": func(ins []uint64) uint64 {
		v := ins[0] & 0x1FFF
		if v&0x1000 != 0 {
			v |= ^uint64(0x1FFF)
		}
		return v
	},
	"id": func(ins []uint64) uint64 { return ins[0] },
}

func mask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(width)) - 1
}

// Build instantiates the datapath part into a dpath builder. Memories
// are created first so read/write ports can attach.
func (n *Netlist) Build(b *dpath.Builder) error {
	mems := map[string]*dpath.Memory{}
	for _, c := range n.Components {
		if c.Kind == KMemory {
			mems[c.Name] = b.Memory(c.Size, c.Width)
		}
	}
	for _, c := range n.Components {
		switch c.Kind {
		case KSequencer, KConcur, KCall, KMemory:
			// control side or already created
		case KVariable:
			b.Variable(c.Name, c.Width, c.Write, c.Reads...)
		case KFetch:
			b.Fetch(c.Act, c.Src, c.Dst)
		case KFunc:
			f, ok := FuncOps[c.Op]
			if !ok {
				return fmt.Errorf("hc: %s: unknown operator %q", c.Name, c.Op)
			}
			w := c.Width
			op := c.Op
			b.Func(c.Out, c.Width, func(ins []uint64) uint64 {
				_ = op
				return f(ins) & mask(w)
			}, c.Ins...)
		case KConst:
			b.Const(c.Out, c.Value&mask(c.Width))
		case KCaseSel:
			b.CaseSel(c.Act, c.Sel, c.Outs...)
		case KContinue:
			b.EnvServeSync(c.Act, dpath.AckDelay)
		case KMemRead:
			m, ok := mems[c.Mem]
			if !ok {
				return fmt.Errorf("hc: %s: unknown memory %q", c.Name, c.Mem)
			}
			m.ReadPort(c.Out, c.Addr, c.Width)
		case KMemWrite:
			m, ok := mems[c.Mem]
			if !ok {
				return fmt.Errorf("hc: %s: unknown memory %q", c.Name, c.Mem)
			}
			m.WritePort(c.Act, c.Addr, c.Data, c.Width)
		default:
			return fmt.Errorf("hc: %s: unknown component kind %q", c.Name, c.Kind)
		}
	}
	return nil
}

// Stats summarizes the netlist.
type Stats struct {
	Control  int
	Datapath int
}

// Stats counts control and datapath components.
func (n *Netlist) Stats() Stats {
	s := Stats{}
	for _, c := range n.Components {
		if c.IsControl() {
			s.Control++
		} else {
			s.Datapath++
		}
	}
	return s
}

// Format renders the netlist in a breeze-like s-expression text form.
func (n *Netlist) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(breeze %s\n", n.Name)
	for _, c := range n.Components {
		sb.WriteString("  (component " + c.Kind + " " + c.Name)
		emit := func(key, val string) {
			if val != "" {
				fmt.Fprintf(&sb, " (%s %s)", key, val)
			}
		}
		emitList := func(key string, vals []string) {
			if len(vals) > 0 {
				fmt.Fprintf(&sb, " (%s %s)", key, strings.Join(vals, " "))
			}
		}
		emit("act", c.Act)
		emitList("subs", c.Subs)
		if c.Width > 0 {
			fmt.Fprintf(&sb, " (width %d)", c.Width)
		}
		if c.Kind == KConst {
			fmt.Fprintf(&sb, " (value %d)", c.Value)
		}
		if c.Size > 0 {
			fmt.Fprintf(&sb, " (size %d)", c.Size)
		}
		emit("op", c.Op)
		emit("write", c.Write)
		emitList("reads", c.Reads)
		emit("src", c.Src)
		emit("dst", c.Dst)
		emit("out", c.Out)
		emitList("ins", c.Ins)
		emit("sel", c.Sel)
		emitList("outs", c.Outs)
		emit("mem", c.Mem)
		emit("addr", c.Addr)
		emit("data", c.Data)
		sb.WriteString(")\n")
	}
	sb.WriteString(")\n")
	return sb.String()
}
