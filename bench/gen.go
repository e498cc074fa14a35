package main

import (
	"fmt"
	"math/rand"
	"strings"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/sexp"
)

// Corpus and edit-list sizes: one pass of each workload. The edit list
// is the edit-loop's warm-up edit and a pass of 64.
const (
	corpusNetlists = 64
	corpusCtrls    = 5
	editCount      = 65
	genTries       = 20 // candidates per kept input before generation gives up
)

// gen generates random legal-by-construction CH controller bodies with
// the Table 1 discipline of the flow's incremental fuzzer, so every
// program compiles into a well-formed Burst-Mode specification. Fresh
// channel names carry a prefix no built-in design uses, so an edit's
// new channels never collide with the design it edits.
type gen struct {
	rng    *rand.Rand
	prefix string
	next   int
}

func (g *gen) fresh() string {
	g.next++
	return fmt.Sprintf("%s%d", g.prefix, g.next)
}

func (g *gen) body(act ch.Activity, depth int) ch.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return &ch.Chan{Kind: ch.PToP, Act: act, Name: g.fresh()}
	}
	if act == ch.Active {
		kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.Seq, ch.SeqOv}
		return &ch.Op{Kind: kinds[g.rng.Intn(len(kinds))], A: g.body(ch.Active, depth-1), B: g.body(ch.Active, depth-1)}
	}
	switch k := g.rng.Intn(5); k {
	case 4:
		return &ch.Op{Kind: ch.Mutex, A: g.body(ch.Passive, depth-1), B: g.body(ch.Passive, depth-1)}
	default:
		kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq}
		return &ch.Op{Kind: kinds[k], A: g.body(ch.Passive, depth-1), B: g.anyBody(depth - 1)}
	}
}

func (g *gen) anyBody(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.body(ch.Active, depth)
	}
	return g.body(ch.Passive, depth)
}

// component wraps a generated body (depth 1 to 3) as one controller: a
// repeated enclosure on the activation channel act, the shape every
// handshake-component controller has.
func (g *gen) component(name, act string) *ch.Program {
	return &ch.Program{Name: name, Body: &ch.Rep{Body: &ch.Op{
		Kind: ch.EncEarly,
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: act},
		B:    g.anyBody(g.rng.Intn(3) + 1),
	}}}
}

// inputs are the generated workload inputs of one seed: the
// synth-corpus netlists and the edit-loop edits. An edit replaces one
// controller of the stack design, keeping its activation channel, so
// clustering still sees it wired to its parent.
type inputs struct {
	Corpus []*core.Netlist
	Edits  []*ch.Program
}

// accept decides whether a generated candidate is kept: it must run
// through the flow without error. Generation calls it with the
// workload's own op, so no op fails on a kept input.
type accept func(*core.Netlist) bool

// generate draws the inputs of one seed. Not every Table 1-legal
// program survives minimization, so corpus netlists are filtered
// through keepNetlist and edited stack netlists through keepEdit; the
// candidate stream depends on the seed alone, which makes the result
// reproducible.
func generate(seed int64, keepNetlist, keepEdit accept) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	g := &gen{rng: rng, prefix: "k"}
	for tries := 0; len(in.Corpus) < corpusNetlists; tries++ {
		if tries == genTries*corpusNetlists {
			return nil, fmt.Errorf("gen: seed %d: %d of %d netlists after %d candidates", seed, len(in.Corpus), corpusNetlists, tries)
		}
		n := &core.Netlist{}
		for k := 0; k < corpusCtrls; k++ {
			n.Components = append(n.Components, g.component(fmt.Sprintf("ctl%d", k), g.fresh()+"act"))
		}
		if keepNetlist(n) {
			in.Corpus = append(in.Corpus, n)
		}
	}

	// Every edit introduces a shape neither the stack nor an earlier
	// edit has, so each one synthesizes something new.
	base := designs.Stack().Control()
	seen := map[string]bool{}
	for _, c := range base.Components {
		if cf, ok := ch.CanonicalizeProgram(c); ok {
			seen[cf.Key] = true
		}
	}
	g = &gen{rng: rng, prefix: "e"}
	for tries := 0; len(in.Edits) < editCount; tries++ {
		if tries == genTries*editCount {
			return nil, fmt.Errorf("gen: seed %d: %d of %d edits after %d candidates", seed, len(in.Edits), editCount, tries)
		}
		target := base.Components[rng.Intn(len(base.Components))]
		edit := g.component(target.Name, activation(target))
		cf, ok := ch.CanonicalizeProgram(edit)
		if ok && !seen[cf.Key] && keepEdit(applyEdit(base, edit)) {
			seen[cf.Key] = true
			in.Edits = append(in.Edits, edit)
		}
	}
	return in, nil
}

// activation returns the passive activation channel of a
// (rep (op (p-to-p passive act) ...)) controller.
func activation(p *ch.Program) string {
	return p.Body.(*ch.Rep).Body.(*ch.Op).A.(*ch.Chan).Name
}

// applyEdit returns base with the component named like edit replaced.
func applyEdit(base *core.Netlist, edit *ch.Program) *core.Netlist {
	out := &core.Netlist{Components: append([]*ch.Program(nil), base.Components...)}
	for i, c := range out.Components {
		if c.Name == edit.Name {
			out.Components[i] = edit
		}
	}
	return out
}

// Text forms of the inputs, as committed under testdata/: one CH
// program per line, corpus netlists each under a ";; netlist N"
// comment line.

func formatProgram(p *ch.Program) string {
	return sexp.L(sexp.Sym("program"), sexp.Sym(p.Name), ch.ToSexp(p.Body)).String() + "\n"
}

func formatCorpus(corpus []*core.Netlist) string {
	var sb strings.Builder
	for i, n := range corpus {
		fmt.Fprintf(&sb, ";; netlist %d\n", i)
		for _, c := range n.Components {
			sb.WriteString(formatProgram(c))
		}
	}
	return sb.String()
}

func parseCorpus(text string) ([]*core.Netlist, error) {
	var out []*core.Netlist
	for i, chunk := range strings.Split(text, ";; netlist ")[1:] {
		_, src, _ := strings.Cut(chunk, "\n")
		n, err := core.ParseNetlist(src)
		if err != nil {
			return nil, fmt.Errorf("corpus netlist %d: %w", i, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func formatEdits(edits []*ch.Program) string {
	var sb strings.Builder
	for _, p := range edits {
		sb.WriteString(formatProgram(p))
	}
	return sb.String()
}

func parseEdits(text string) ([]*ch.Program, error) {
	n, err := core.ParseNetlist(text)
	if err != nil {
		return nil, fmt.Errorf("edit list: %w", err)
	}
	return n.Components, nil
}
