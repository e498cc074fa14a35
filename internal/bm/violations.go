package bm

import (
	"fmt"
	"math/bits"
)

// Kind classifies a Burst-Mode well-formedness violation. The kinds
// map one-to-one onto bmlint's BM-error codes; keeping the
// classification here (rather than in bmlint) lets Check and bmlint
// share a single accumulating implementation without an import cycle.
type Kind int

const (
	// KindEmptyInput: an arc's input burst is empty.
	KindEmptyInput Kind = iota
	// KindRole: an input signal used as an output or vice versa.
	KindRole
	// KindDuplicate: a signal appears twice in one burst.
	KindDuplicate
	// KindMaximalSet: two arcs from one state have comparable input
	// bursts, so the machine cannot tell which burst completed.
	KindMaximalSet
	// KindPolarity: a transition toggles a signal to the value it
	// already holds on a reachable path.
	KindPolarity
	// KindEntryValues: a state is entered with two different
	// signal-value vectors (Burst-Mode machines are deterministic in
	// total state).
	KindEntryValues
	// KindUnreachable: a state is unreachable from the start state.
	KindUnreachable
	// KindTerminal: a state has no outgoing arcs (controllers are
	// non-terminating).
	KindTerminal
	// KindStart: the start state is out of range. Check used to crash
	// on such specs rather than report; the accumulating checker
	// classifies them (hand-written .bms files can carry anything).
	KindStart
	// KindDeclaration: a signal is declared twice, or as both an input
	// and an output.
	KindDeclaration
)

// Violation is one Burst-Mode well-formedness violation: its kind,
// where it lives (a state, an arc, a signal — -1/"" when not
// applicable), and the exact message Check has always reported.
type Violation struct {
	Kind  Kind
	State int    // state involved, -1 when none; arc violations carry the arc's From state
	Arc   int    // index into Spec.Arcs, -1 when not arc-specific
	Sig   string // signal name when signal-specific
	Msg   string
}

func (sp *Spec) violationf(k Kind, state, arc int, sig, format string, args ...any) Violation {
	return Violation{Kind: k, State: state, Arc: arc, Sig: sig, Msg: fmt.Sprintf(format, args...)}
}

// Violations checks every Burst-Mode well-formedness condition (see
// Check for the list) and returns all violations found, in the order
// Check has always tested them: signal declarations, per-arc burst
// checks, the maximal-set property, polarity/entry consistency by BFS
// over (state, values), then reachability and termination per state.
// Check returns exactly the first element; bmlint reports them all.
//
// The BFS keeps going after a violation (applying the transition as
// written), so downstream findings on a broken spec are best-effort —
// later violations can be knock-on effects of earlier ones.
func (sp *Spec) Violations() []Violation {
	vs, _ := sp.walk()
	return vs
}

// Declared roles of an indexed signal.
const (
	declIn uint8 = 1 << iota
	declOut
)

// burstWord names the burst in role and duplicate messages.
var burstWord = [2]string{"input", "output"}

// walk is the one pass behind Check, Violations and StateValues. It
// indexes the signals once (inputs, outputs, then names that appear
// only in bursts, in first-appearance order) and carries valuations as
// bit vectors of w words. A state's entry is 2w words: the values,
// then which signals are assigned. Declared signals always are; a
// burst-only name is once a path writes it; an unassigned name reads
// as 0. The returned Values hold only when there are no violations.
func (sp *Spec) walk() ([]Violation, Values) {
	var vs []Violation
	nDecl := len(sp.Inputs) + len(sp.Outputs)
	index := make(map[string]int, nDecl)
	role := make([]uint8, 0, nDecl)
	for k, names := range [2][]string{sp.Inputs, sp.Outputs} {
		r := declIn << k
		for _, name := range names {
			i, ok := index[name]
			switch {
			case !ok:
				index[name] = len(role)
				role = append(role, r)
			case role[i]&r != 0:
				vs = append(vs, sp.violationf(KindDeclaration, -1, -1, name,
					"signal %s is declared twice", name))
			default:
				vs = append(vs, sp.violationf(KindDeclaration, -1, -1, name,
					"signal %s is declared as both input and output", name))
				role[i] |= r
			}
		}
	}
	decl := len(role)

	// Signal index of every edge, arc by arc, input burst then output
	// burst; arc ai's edges start at arcOff[ai].
	n, m := sp.NStates, len(sp.Arcs)
	nEdge := 0
	for _, a := range sp.Arcs {
		nEdge += len(a.In) + len(a.Out)
	}
	ints := make([]int32, nEdge+m+1+n+m+n) // edge, arcOff, head, link, queue
	edge := take(&ints, nEdge)
	arcOff := take(&ints, m+1)
	e := 0
	for ai, a := range sp.Arcs {
		arcOff[ai] = int32(e)
		for _, b := range [2]Burst{a.In, a.Out} {
			for _, s := range b {
				i, ok := index[s.Name]
				if !ok {
					i = len(role)
					index[s.Name] = i
					role = append(role, 0)
				}
				edge[e] = int32(i)
				e++
			}
		}
	}
	arcOff[m] = int32(e)
	w := (len(role) + 63) / 64
	words := make([]uint64, 2*w*n+2*w+w+(n+63)/64) // entry, next, seen, reached
	entry := take(&words, 2*w*n)
	next := take(&words, 2*w)
	seen := take(&words, w)
	reached := take(&words, (n+63)/64)

	for ai, a := range sp.Arcs {
		if len(a.In) == 0 {
			vs = append(vs, sp.violationf(KindEmptyInput, a.From, ai, "",
				"arc %s has an empty input burst", a))
		}
		idx := edge[arcOff[ai]:arcOff[ai+1]]
		for k, b := range [2]Burst{a.In, a.Out} {
			for j, s := range b {
				i := idx[j]
				if role[i]&(declIn<<k) == 0 {
					vs = append(vs, sp.violationf(KindRole, a.From, ai, s.Name,
						"arc %s: %s is not an %s", a, s.Name, burstWord[k]))
				}
				if seen[i/64]>>(i%64)&1 != 0 {
					vs = append(vs, sp.violationf(KindDuplicate, a.From, ai, s.Name,
						"arc %s: signal %s appears twice in %s burst", a, s.Name, burstWord[k]))
				}
				seen[i/64] |= 1 << (i % 64)
			}
			for _, i := range idx[:len(b)] {
				seen[i/64] = 0
			}
			idx = idx[len(b):]
		}
	}

	// Arcs leaving each state, in declaration order: head[s] is the
	// first, link[ai] the one after arc ai, -1 ends a list.
	head := take(&ints, n)
	link := take(&ints, m)
	for s := range head {
		head[s] = -1
	}
	for ai := m - 1; ai >= 0; ai-- {
		if f := sp.Arcs[ai].From; f >= 0 && f < n {
			link[ai], head[f] = head[f], int32(ai)
		}
	}
	for s := 0; s < n; s++ {
		for i := head[s]; i >= 0; i = link[i] {
			for j := link[i]; j >= 0; j = link[j] {
				bi, bj := sp.Arcs[i].In, sp.Arcs[j].In
				if bi.SubsetOf(bj) || bj.SubsetOf(bi) {
					vs = append(vs, sp.violationf(KindMaximalSet, s, -1, "",
						"state %d violates the maximal-set property: %q vs %q",
						s, bi.String(), bj.String()))
				}
			}
		}
	}

	// Polarity consistency + reachability, by BFS over (state, values).
	// A state must be entered with a unique signal-value vector
	// (Burst-Mode machines are deterministic in total state); the first
	// arrival in BFS order sets it.
	if sp.Start < 0 || sp.Start >= n {
		vs = append(vs, sp.violationf(KindStart, sp.Start, -1, "",
			"start state %d out of range (spec has %d states)", sp.Start, n))
		return vs, Values{}
	}
	start := entry[2*w*sp.Start:][:2*w]
	for i := 0; i < decl; i++ {
		start[w+i/64] |= 1 << (i % 64)
	}
	reached[sp.Start/64] |= 1 << (sp.Start % 64)
	queue := take(&ints, n)
	queue[0] = int32(sp.Start)
	for qh, qt := 0, 1; qh < qt; qh++ {
		s := int(queue[qh])
		cur := entry[2*w*s:][:2*w]
		for ai := head[s]; ai >= 0; ai = link[ai] {
			a := sp.Arcs[ai]
			copy(next, cur)
			idx := edge[arcOff[ai]:arcOff[ai+1]]
			for _, b := range [2]Burst{a.In, a.Out} {
				for j, sig := range b {
					i := int(idx[j])
					bit := uint64(1) << (i % 64)
					if old := next[i/64]&bit != 0; old == sig.Rise {
						vs = append(vs, sp.violationf(KindPolarity, a.From, int(ai), sig.Name,
							"arc %s: transition %s but %s already holds value %v",
							a, sig, sig.Name, boolBit(old)))
					}
					if sig.Rise {
						next[i/64] |= bit
					} else {
						next[i/64] &^= bit
					}
					next[w+i/64] |= bit
				}
				idx = idx[len(b):]
			}
			t := a.To
			if t < 0 || t >= n {
				continue
			}
			dst := entry[2*w*t:][:2*w]
			if reached[t/64]>>(t%64)&1 == 0 {
				copy(dst, next)
				reached[t/64] |= 1 << (t % 64)
				queue[qt] = int32(t)
				qt++
			} else if !sameEntry(dst, next, w) {
				vs = append(vs, sp.violationf(KindEntryValues, t, int(ai), "",
					"state %d entered with inconsistent signal values via arc %s", t, a))
			}
		}
	}
	for s := 0; s < n; s++ {
		if reached[s/64]>>(s%64)&1 == 0 {
			vs = append(vs, sp.violationf(KindUnreachable, s, -1, "",
				"state %d is unreachable", s))
		}
		if head[s] < 0 {
			vs = append(vs, sp.violationf(KindTerminal, s, -1, "",
				"state %d has no outgoing arcs", s))
		}
	}
	return vs, Values{index: index, stride: 2 * w, bits: entry}
}

// sameEntry is the re-entry test of the walk: the candidate assigns as
// many signals as the stored entry, and every signal the stored entry
// assigns holds the same value in the candidate. The test is not
// symmetric when burst-only names make the assigned sets differ.
func sameEntry(stored, cand []uint64, w int) bool {
	ns, nc := 0, 0
	for k := 0; k < w; k++ {
		set := stored[w+k]
		if (stored[k]^cand[k])&set != 0 {
			return false
		}
		ns += bits.OnesCount64(set)
		nc += bits.OnesCount64(cand[w+k])
	}
	return ns == nc
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// take slices the next k elements off *buf, so that one allocation
// backs several scratch slices.
func take[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}
