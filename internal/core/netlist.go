// Package core implements the paper's primary contribution: the
// system-level control optimizations of Section 4. Control handshake
// components, modelled as CH programs, are clustered into larger
// controllers by eliminating internal point-to-point channels:
//
//   - Activation Channel Removal (Section 4.1, procedure T1_clustering)
//     hides a component's activation channel and inlines its body into
//     the activating component;
//   - Call Distribution (Section 4.2, procedure T2_clustering) splits
//     n-way call components into enclosure fragments, distributes them
//     into their call sites via T1, and restores calls whose fragments
//     do not all land in the same cluster.
//
// Every candidate merge is accepted only if the merged component is
// still Burst-Mode synthesizable (Table 1 legality plus a full CH-to-BM
// compilation and well-formedness check).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"balsabm/internal/ch"
	"balsabm/internal/sexp"
)

// Netlist is a network of control handshake components described by CH
// programs. Components are connected by channels: a channel name used
// by two components (once actively, once passively) is an internal
// channel; a name used by exactly one component is part of the
// netlist's external interface (datapath, environment, or other
// processes).
type Netlist struct {
	Components []*ch.Program
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{Components: make([]*ch.Program, len(n.Components))}
	for i, c := range n.Components {
		out.Components[i] = c.Clone()
	}
	return out
}

// Find returns the component with the given name, or nil.
func (n *Netlist) Find(name string) *ch.Program {
	for _, c := range n.Components {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// remove deletes the named component.
func (n *Netlist) remove(name string) {
	out := n.Components[:0]
	for _, c := range n.Components {
		if c.Name != name {
			out = append(out, c)
		}
	}
	n.Components = out
}

// ChanUse records one component's use of a channel.
type ChanUse struct {
	Component string
	Port      ch.Port
}

// ChannelUses maps every channel name to the components using it.
func (n *Netlist) ChannelUses() (map[string][]ChanUse, error) {
	uses := map[string][]ChanUse{}
	for _, c := range n.Components {
		ports, err := ch.Ports(c.Body)
		if err != nil {
			return nil, fmt.Errorf("core: component %s: %w", c.Name, err)
		}
		for _, p := range ports {
			uses[p.Name] = append(uses[p.Name], ChanUse{Component: c.Name, Port: p})
		}
	}
	return uses, nil
}

// InternalPToP lists the point-to-point channels connecting exactly two
// components with complementary activities — the candidates for
// clustering ("currently, only point-to-point channels are considered
// for optimization"). Names are sorted for determinism.
func (n *Netlist) InternalPToP() ([]string, error) {
	uses, err := n.ChannelUses()
	if err != nil {
		return nil, err
	}
	return internalPToP(nil, uses), nil
}

// internalPToP lists, sorted, the channels of uses that InternalPToP
// lists, reusing dst's storage.
func internalPToP(dst []string, uses map[string][]ChanUse) []string {
	for name, us := range uses {
		if len(us) != 2 {
			continue
		}
		a, b := us[0].Port, us[1].Port
		if a.Kind != ch.PToP || b.Kind != ch.PToP || a.Mux || b.Mux {
			continue
		}
		if a.Act == b.Act {
			continue // miswired; leave to validation elsewhere
		}
		dst = append(dst, name)
	}
	slices.Sort(dst)
	return dst
}

// ExternalChannels lists channels used by exactly one component: the
// netlist's interface to datapath and environment.
func (n *Netlist) ExternalChannels() ([]string, error) {
	uses, err := n.ChannelUses()
	if err != nil {
		return nil, err
	}
	var out []string
	for name, us := range uses {
		if len(us) == 1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats summarizes a netlist for before/after reporting (Fig 2).
type Stats struct {
	Components       int
	InternalChannels int
	ExternalChannels int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() (Stats, error) {
	internal, err := n.InternalPToP()
	if err != nil {
		return Stats{}, err
	}
	external, err := n.ExternalChannels()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Components:       len(n.Components),
		InternalChannels: len(internal),
		ExternalChannels: len(external),
	}, nil
}

func (s Stats) String() string {
	return fmt.Sprintf("%d components, %d internal channels, %d external channels",
		s.Components, s.InternalChannels, s.ExternalChannels)
}

// Format renders the netlist as a sequence of CH programs.
func (n *Netlist) Format() string {
	var sb strings.Builder
	for _, c := range n.Components {
		sb.WriteString(ch.FormatProgram(c))
		sb.WriteString("\n")
	}
	return sb.String()
}

// ParseNetlist reads a sequence of (program name expr) forms, or a
// single bare expression, which becomes one component named "main".
// The whole source is scanned in one pass, so the Line:Col positions
// recorded on every component's AST nodes are absolute within the
// text — which is what makes multi-program lint diagnostics
// (internal/analysis) point at the right lines. Source with no
// expression, only blanks and comments, is an error: a netlist with no
// component is no design.
func ParseNetlist(src string) (*Netlist, error) {
	nodes, err := sexp.ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, &ch.ParseError{Msg: "empty input"}
	}
	n := &Netlist{}
	if l, ok := nodes[0].(sexp.List); !ok || l.Head() != "program" {
		if len(nodes) > 1 {
			return nil, &ch.ParseError{Msg: "expected a single expression or a sequence of (program name expr) forms"}
		}
		body, err := ch.FromSexp(nodes[0])
		if err != nil {
			return nil, err
		}
		n.Components = []*ch.Program{{Name: "main", Body: body}}
		return n, nil
	}
	for _, node := range nodes {
		p, err := ch.ProgramFromSexp(node)
		if err != nil {
			return nil, err
		}
		n.Components = append(n.Components, p)
	}
	return n, nil
}
