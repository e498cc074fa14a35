// Package chtobm implements the CH-to-BMS compilation algorithm of
// Section 3.6 of the paper: a CH program is expanded into a linear
// intermediate form (signal transitions with inserted labels, gotos and
// external input choices), and the intermediate form is translated into
// a Burst-Mode specification by accumulating alternating input/output
// bursts into arcs.
package chtobm

import (
	"fmt"
	"slices"
	"sort"

	"balsabm/internal/bm"
	"balsabm/internal/ch"
)

// Compile translates a CH program into a Burst-Mode specification. The
// program is first validated against the Burst-Mode aware restrictions
// (Table 1); the resulting specification is checked for Burst-Mode
// well-formedness. The paper's central claim — restrictions make the
// translation correct by construction — shows up here as: if Validate
// passes, Check passes.
func Compile(p *ch.Program) (*bm.Spec, error) {
	if err := ch.Validate(p.Body); err != nil {
		return nil, err
	}
	sp, err := compileNoCheck(p)
	if err != nil {
		return nil, err
	}
	if err := sp.Check(); err != nil {
		return nil, fmt.Errorf("chtobm: %s: compiled spec fails Burst-Mode check: %w", p.Name, err)
	}
	return sp, nil
}

// CompileLoose translates without the final well-formedness check. It
// is used by the clustering engine to probe whether a merged component
// is still BM-synthesizable, and by tests that exercise fragments.
func CompileLoose(p *ch.Program) (*bm.Spec, error) {
	if err := ch.Validate(p.Body); err != nil {
		return nil, err
	}
	return compileNoCheck(p)
}

func compileNoCheck(p *ch.Program) (*bm.Spec, error) {
	x, err := ch.Expand(p.Body)
	if err != nil {
		return nil, err
	}
	b := newBuilder(p.Name)
	w := walker{cur: b.newState()}
	if err := b.process(x.Flatten(), w); err != nil {
		return nil, fmt.Errorf("chtobm: %s: %w", p.Name, err)
	}
	return b.finish()
}

// builder accumulates BM arcs while walking the intermediate form.
type builder struct {
	name    string
	nstates int
	arcs    []bm.Arc
	labels  map[string]int
	parent  []int // union-find for state aliasing
	dirs    map[string]ch.Dir
}

func newBuilder(name string) *builder {
	return &builder{name: name, labels: map[string]int{}, dirs: map[string]ch.Dir{}}
}

func (b *builder) newState() int {
	b.nstates++
	b.parent = append(b.parent, b.nstates-1)
	return b.nstates - 1
}

func (b *builder) find(s int) int {
	for b.parent[s] != s {
		b.parent[s] = b.parent[b.parent[s]]
		s = b.parent[s]
	}
	return s
}

func (b *builder) union(a, c int) {
	ra, rc := b.find(a), b.find(c)
	if ra != rc {
		// Keep the smaller (earlier-created) representative so the
		// final numbering follows creation order.
		if ra < rc {
			b.parent[rc] = ra
		} else {
			b.parent[ra] = rc
		}
	}
}

func (b *builder) noteDir(t ch.Trans) error {
	if d, ok := b.dirs[t.Signal]; ok {
		if d != t.Dir {
			return fmt.Errorf("signal %s used as both input and output", t.Signal)
		}
		return nil
	}
	b.dirs[t.Signal] = t.Dir
	return nil
}

// walker is the traversal cursor: the current state (-1 when control
// has left via a goto) and the input/output bursts accumulated since
// the last arc was closed.
type walker struct {
	cur     int
	in, out bm.Burst
}

func (w walker) pending() bool { return len(w.in) > 0 || len(w.out) > 0 }

func (w walker) clone() walker {
	return walker{cur: w.cur, in: w.in.Clone(), out: w.out.Clone()}
}

// closeArc emits the pending arc from w.cur to the given target state.
func (b *builder) closeArc(w *walker, to int) error {
	if len(w.in) == 0 {
		return fmt.Errorf("output burst %q is not triggered by any input burst (state %d)",
			w.out.String(), w.cur)
	}
	in, out := w.in.Clone(), w.out.Clone()
	in.Sort()
	out.Sort()
	b.arcs = append(b.arcs, bm.Arc{From: w.cur, To: to, In: in, Out: out})
	w.cur = to
	w.in, w.out = nil, nil
	return nil
}

// firstTransition finds the first signal transition in a sequence,
// descending into choices (all branch firsts are checked by process
// itself; this is used for error messages only).
func firstTransition(items []ch.Item) (ch.Trans, bool) {
	for _, it := range items {
		switch n := it.(type) {
		case ch.Trans:
			return n, true
		case ch.Choice:
			for _, br := range n.Branches {
				if t, ok := firstTransition(br); ok {
					return t, true
				}
			}
		}
	}
	return ch.Trans{}, false
}

func (b *builder) process(items []ch.Item, w walker) error {
	for i := 0; i < len(items); i++ {
		switch it := items[i].(type) {
		case ch.Trans:
			if err := b.noteDir(it); err != nil {
				return err
			}
			if w.cur < 0 {
				return fmt.Errorf("unreachable transition %s after goto", it)
			}
			if it.Dir == ch.In {
				if len(w.out) > 0 {
					if err := b.closeArc(&w, b.newState()); err != nil {
						return err
					}
				}
				w.in = append(w.in, bm.Sig{Name: it.Signal, Rise: it.Rise})
			} else {
				w.out = append(w.out, bm.Sig{Name: it.Signal, Rise: it.Rise})
			}
		case ch.Label:
			if w.cur < 0 {
				// Control left via goto; with bgotos handled by forward
				// splicing, nothing can resume at this label on this
				// path. The path is finished.
				return nil
			}
			if w.pending() {
				if err := b.closeArc(&w, b.newState()); err != nil {
					return err
				}
			}
			if prev, ok := b.labels[it.Name]; ok {
				// A label reached along two converging paths (e.g. a
				// loop entered after an external choice): the states
				// merge. Signal-value consistency is verified by the
				// final Burst-Mode check.
				b.union(prev, w.cur)
			} else {
				b.labels[it.Name] = w.cur
			}
		case ch.Goto:
			if w.cur < 0 {
				return nil
			}
			target, ok := b.labels[it.Name]
			if !ok {
				return fmt.Errorf("goto to unbound label %s", it.Name)
			}
			if !w.pending() {
				b.union(w.cur, target)
				w.cur = -1
				continue
			}
			if err := b.closeArc(&w, target); err != nil {
				return err
			}
			w.cur = -1
		case ch.BGoto:
			// Break: splice control forward to just past the matching
			// end-of-loop label, keeping the pending bursts — the
			// post-loop outputs ride on the burst that triggered the
			// break.
			if w.cur < 0 {
				return nil
			}
			j := i + 1
			for ; j < len(items); j++ {
				if l, ok := items[j].(ch.Label); ok && l.Name == it.Name {
					break
				}
			}
			if j == len(items) {
				return fmt.Errorf("bgoto to label %s not found downstream", it.Name)
			}
			i = j // loop increment skips the label itself
		case ch.Choice:
			if w.cur < 0 {
				return nil
			}
			// A pending output burst is fully determined before the
			// choice: close its arc once, so the branches fork from a
			// single state instead of duplicating the arc (which would
			// be nondeterministic). A pending input burst without
			// outputs stays open — the branch-selecting inputs join it
			// (e.g. the decision-wait's a1_r+ i1_r+ burst).
			if len(w.out) > 0 {
				if err := b.closeArc(&w, b.newState()); err != nil {
					return err
				}
			}
			rest := items[i+1:]
			for bi, branch := range it.Branches {
				if t, ok := firstTransition(branch); ok && t.Dir != ch.In {
					return fmt.Errorf("choice branch %d begins with output %s; external choices must be resolved by inputs", bi+1, t)
				}
				seq := make([]ch.Item, 0, len(branch)+len(rest))
				seq = append(seq, branch...)
				seq = append(seq, rest...)
				if err := b.process(seq, w.clone()); err != nil {
					return fmt.Errorf("choice branch %d: %w", bi+1, err)
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown intermediate item %T", it)
		}
	}
	if w.cur >= 0 && w.pending() {
		return fmt.Errorf("dangling bursts %q/%q at end of program (missing rep?)",
			w.in.String(), w.out.String())
	}
	return nil
}

// finish resolves state aliases, prunes unreachable states, renumbers
// the remainder in creation order (matching the paper's figures) and
// assembles the Spec.
func (b *builder) finish() (*bm.Spec, error) {
	// Resolve aliases.
	arcs := make([]bm.Arc, len(b.arcs))
	for i, a := range b.arcs {
		arcs[i] = bm.Arc{From: b.find(a.From), To: b.find(a.To), In: a.In, Out: a.Out}
	}
	start := b.find(0)
	// Reachability from the start state.
	adj := make([][]int, b.nstates)
	for _, a := range arcs {
		adj[a.From] = append(adj[a.From], a.To)
	}
	reach := make([]bool, b.nstates)
	reach[start] = true
	queue := []int{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range adj[s] {
			if !reach[t] {
				reach[t] = true
				queue = append(queue, t)
			}
		}
	}
	// Renumber reachable states in creation order; the start state is
	// the earliest created, so it becomes 0.
	renum := make([]int, b.nstates)
	n := 0
	for s := 0; s < b.nstates; s++ {
		if b.find(s) == s && reach[s] {
			renum[s] = n
			n++
		}
	}
	sp := &bm.Spec{Name: b.name, Start: renum[start], NStates: n}
	// Keep the arcs leaving reachable states, renumbered, in place.
	sp.Arcs = arcs[:0]
	for _, a := range arcs {
		if reach[a.From] {
			sp.Arcs = append(sp.Arcs, bm.Arc{From: renum[a.From], To: renum[a.To], In: a.In, Out: a.Out})
		}
	}
	sp.Arcs = dedupeArcs(sp.Arcs, sp.NStates)
	for sig, d := range b.dirs {
		if d == ch.In {
			sp.Inputs = append(sp.Inputs, sig)
		} else {
			sp.Outputs = append(sp.Outputs, sig)
		}
	}
	sort.Strings(sp.Inputs)
	sort.Strings(sp.Outputs)
	return sp, nil
}

// dedupeArcs drops, in place, every arc identical to an earlier one
// (merged choice tails produce them), keeping first occurrences in
// order. The arcs kept from each state form a chain, head[from] then
// next[i] (1-based indices into the kept arcs, 0 ends it), so an arc
// is compared only with the arcs already kept from its own state.
func dedupeArcs(arcs []bm.Arc, nstates int) []bm.Arc {
	head := make([]int, nstates)
	next := make([]int, 0, len(arcs))
	kept := arcs[:0]
nextArc:
	for _, a := range arcs {
		for i := head[a.From]; i != 0; i = next[i-1] {
			k := kept[i-1]
			if k.To == a.To && slices.Equal(k.In, a.In) && slices.Equal(k.Out, a.Out) {
				continue nextArc
			}
		}
		next = append(next, head[a.From])
		kept = append(kept, a)
		head[a.From] = len(kept)
	}
	return kept
}
