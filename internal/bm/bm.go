// Package bm models Burst-Mode (BM) asynchronous controller
// specifications (Nowick 1993; Fuhrer & Nowick 2001), the target of the
// CH-to-BMS compilation path.
//
// A BM specification is a Mealy-style machine: a set of states and arcs,
// each arc labelled with an input burst followed by an output burst. The
// machine waits for the complete input burst (transitions may arrive in
// any order), then fires the output burst and moves to the next state.
package bm

import (
	"fmt"
	"sort"
	"strings"
)

// Sig is a signal edge within a burst, e.g. "a_r+".
type Sig struct {
	Name string
	Rise bool
}

func (s Sig) String() string {
	if s.Rise {
		return s.Name + "+"
	}
	return s.Name + "-"
}

// Burst is a set of signal edges. Order is canonical (sorted by name).
type Burst []Sig

func (b Burst) String() string {
	parts := make([]string, len(b))
	for i, s := range b {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Sort orders the burst canonically by signal name.
func (b Burst) Sort() {
	sort.Slice(b, func(i, j int) bool { return b[i].Name < b[j].Name })
}

// Contains reports whether the burst includes the given edge.
func (b Burst) Contains(s Sig) bool {
	for _, x := range b {
		if x == s {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every edge of b appears in other.
func (b Burst) SubsetOf(other Burst) bool {
	for _, s := range b {
		if !other.Contains(s) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the burst.
func (b Burst) Clone() Burst { return append(Burst(nil), b...) }

// Arc is a specification arc: on input burst In (complete), emit output
// burst Out and move From -> To.
type Arc struct {
	From, To int
	In, Out  Burst
}

func (a Arc) String() string {
	return fmt.Sprintf("%d -> %d : %s / %s", a.From, a.To, a.In, a.Out)
}

// Spec is a Burst-Mode specification.
type Spec struct {
	Name    string
	Inputs  []string // input signal names, sorted
	Outputs []string // output signal names, sorted
	Start   int      // start state
	NStates int
	Arcs    []Arc
}

// ArcsFrom returns the arcs leaving state s.
func (sp *Spec) ArcsFrom(s int) []Arc {
	var out []Arc
	for _, a := range sp.Arcs {
		if a.From == s {
			out = append(out, a)
		}
	}
	return out
}

// IsInput reports whether name is an input signal of the spec.
func (sp *Spec) IsInput(name string) bool {
	for _, in := range sp.Inputs {
		if in == name {
			return true
		}
	}
	return false
}

// String renders the spec in a .bms-style text format:
//
//	name <name>
//	input <sig> 0
//	output <sig> 0
//	<from> <to> <in-burst> | <out-burst>
func (sp *Spec) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name %s\n", sp.Name)
	for _, in := range sp.Inputs {
		fmt.Fprintf(&sb, "input %s 0\n", in)
	}
	for _, out := range sp.Outputs {
		fmt.Fprintf(&sb, "output %s 0\n", out)
	}
	for _, a := range sp.Arcs {
		fmt.Fprintf(&sb, "%d %d %s | %s\n", a.From, a.To, a.In, a.Out)
	}
	return sb.String()
}

// Parse reads the .bms-style text format produced by String. State
// numbers may not exceed the spec's arc count: k arcs reach at most k+1
// states from state 0, so a larger number always leaves a state
// unreachable, and rejecting it keeps every table sized by NStates
// bounded by the input's length rather than by a number written in it.
func Parse(src string) (*Spec, error) {
	sp := &Spec{}
	maxState, maxLine := -1, 0
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, ";") || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("bm: line %d: name takes one argument", lineNo+1)
			}
			sp.Name = fields[1]
		case "input", "output":
			if len(fields) < 2 {
				return nil, fmt.Errorf("bm: line %d: %s takes a signal name", lineNo+1, fields[0])
			}
			// Every signal starts low (Check's all-zero initial values).
			if len(fields) > 2 && fields[2] != "0" {
				return nil, fmt.Errorf("bm: line %d: %s %s: initial value %q: only 0 is supported", lineNo+1, fields[0], fields[1], fields[2])
			}
			if fields[0] == "input" {
				sp.Inputs = append(sp.Inputs, fields[1])
			} else {
				sp.Outputs = append(sp.Outputs, fields[1])
			}
		default:
			// <from> <to> edges... | edges...
			var from, to int
			if _, err := fmt.Sscanf(fields[0], "%d", &from); err != nil {
				return nil, fmt.Errorf("bm: line %d: bad state %q", lineNo+1, fields[0])
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("bm: line %d: missing target state", lineNo+1)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &to); err != nil {
				return nil, fmt.Errorf("bm: line %d: bad state %q", lineNo+1, fields[1])
			}
			arc := Arc{From: from, To: to}
			inBurst := true
			for _, f := range fields[2:] {
				if f == "|" {
					inBurst = false
					continue
				}
				sig, err := parseSig(f)
				if err != nil {
					return nil, fmt.Errorf("bm: line %d: %v", lineNo+1, err)
				}
				if inBurst {
					arc.In = append(arc.In, sig)
				} else {
					arc.Out = append(arc.Out, sig)
				}
			}
			arc.In.Sort()
			arc.Out.Sort()
			sp.Arcs = append(sp.Arcs, arc)
			if max(from, to) > maxState {
				maxState, maxLine = max(from, to), lineNo+1
			}
		}
	}
	if maxState > len(sp.Arcs) {
		return nil, fmt.Errorf("bm: line %d: state %d exceeds the spec's arc count %d", maxLine, maxState, len(sp.Arcs))
	}
	sp.NStates = maxState + 1
	sort.Strings(sp.Inputs)
	sort.Strings(sp.Outputs)
	return sp, nil
}

func parseSig(s string) (Sig, error) {
	if len(s) < 2 {
		return Sig{}, fmt.Errorf("bad edge %q", s)
	}
	switch s[len(s)-1] {
	case '+':
		return Sig{Name: s[:len(s)-1], Rise: true}, nil
	case '-':
		return Sig{Name: s[:len(s)-1], Rise: false}, nil
	}
	return Sig{}, fmt.Errorf("edge %q must end in + or -", s)
}
