package bm

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// twoState returns a minimal well-formed two-state machine:
// 0 -> 1 : a+ / y+ ; 1 -> 0 : a- / y-.
func twoState() *Spec {
	return &Spec{
		Name:    "two",
		Inputs:  []string{"a"},
		Outputs: []string{"y"},
		NStates: 2,
		Arcs: []Arc{
			{From: 0, To: 1, In: Burst{{Name: "a", Rise: true}}, Out: Burst{{Name: "y", Rise: true}}},
			{From: 1, To: 0, In: Burst{{Name: "a", Rise: false}}, Out: Burst{{Name: "y", Rise: false}}},
		},
	}
}

func brokenSpecs() map[string]*Spec {
	empty := twoState()
	empty.Arcs[0].In = nil

	role := twoState()
	role.Arcs[0].In = Burst{{Name: "y", Rise: true}}

	dup := twoState()
	dup.Arcs[0].Out = Burst{{Name: "y", Rise: true}, {Name: "y", Rise: true}}

	maximal := twoState()
	maximal.Inputs = []string{"a", "b"}
	maximal.Arcs = append(maximal.Arcs, Arc{From: 0, To: 1,
		In:  Burst{{Name: "a", Rise: true}, {Name: "b", Rise: true}},
		Out: Burst{{Name: "y", Rise: true}}})

	polarity := twoState()
	polarity.Arcs[1].In = Burst{{Name: "a", Rise: true}} // a already 1 in state 1

	unreachable := twoState()
	unreachable.NStates = 3
	unreachable.Arcs = append(unreachable.Arcs, Arc{From: 2, To: 0,
		In: Burst{{Name: "a", Rise: true}}})

	terminal := twoState()
	terminal.Arcs = terminal.Arcs[:1] // state 1 has no way out

	badStart := twoState()
	badStart.Start = 7

	return map[string]*Spec{
		"empty-input":  empty,
		"role":         role,
		"duplicate":    dup,
		"maximal-set":  maximal,
		"polarity":     polarity,
		"unreachable":  unreachable,
		"terminal":     terminal,
		"start-range":  badStart,
		"reconvergent": reconvergent(),
	}
}

// reconvergent builds a machine where two paths reach state 3 with
// different values of y: 0 -a+-> 1 -b+/y+-> 3 vs 0 -b+-> 2 -a+-> 3.
func reconvergent() *Spec {
	b := func(name string, rise bool) Burst { return Burst{{Name: name, Rise: rise}} }
	return &Spec{
		Name:    "reconv",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"y"},
		NStates: 4,
		Arcs: []Arc{
			{From: 0, To: 1, In: b("a", true)},
			{From: 0, To: 2, In: b("b", true)},
			{From: 1, To: 3, In: b("b", true), Out: b("y", true)},
			{From: 2, To: 3, In: b("a", true)},
			{From: 3, To: 0, In: Burst{{Name: "a", Rise: false}, {Name: "b", Rise: false}}},
		},
	}
}

// TestCheckViolationsAgreement pins the satellite invariant: Check is
// a thin wrapper over Violations, so the first accumulated violation
// is byte-identical to Check's error on every kind of broken spec,
// and clean specs are clean both ways.
func TestCheckViolationsAgreement(t *testing.T) {
	for name, sp := range brokenSpecs() {
		vs := sp.Violations()
		if len(vs) == 0 {
			t.Errorf("%s: Violations found nothing", name)
			continue
		}
		err := sp.Check()
		if err == nil {
			t.Errorf("%s: Check passed but Violations found %d", name, len(vs))
			continue
		}
		var ce *CheckError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Check error type %T", name, err)
			continue
		}
		if ce.Msg != vs[0].Msg {
			t.Errorf("%s: Check = %q, Violations[0] = %q", name, ce.Msg, vs[0].Msg)
		}
	}
	clean := twoState()
	if vs := clean.Violations(); len(vs) != 0 {
		t.Errorf("clean spec: Violations = %v", vs)
	}
	if err := clean.Check(); err != nil {
		t.Errorf("clean spec: Check = %v", err)
	}
}

func TestViolationsAccumulate(t *testing.T) {
	sp := twoState()
	sp.Arcs[0].In = nil                              // empty input burst
	sp.Arcs[1].In = Burst{{Name: "y", Rise: false}}  // output used as input
	sp.Arcs[1].Out = Burst{{Name: "a", Rise: false}} // input used as output
	vs := sp.Violations()
	if len(vs) < 3 {
		t.Fatalf("got %d violations, want >= 3: %v", len(vs), vs)
	}
	wantKinds := []Kind{KindEmptyInput, KindRole, KindRole}
	for i, k := range wantKinds {
		if vs[i].Kind != k {
			t.Errorf("vs[%d].Kind = %v, want %v (%s)", i, vs[i].Kind, k, vs[i].Msg)
		}
	}
	if vs[0].Arc != 0 || vs[1].Arc != 1 {
		t.Errorf("arc indices = %d, %d; want 0, 1", vs[0].Arc, vs[1].Arc)
	}
}

func TestViolationKinds(t *testing.T) {
	want := map[string]Kind{
		"empty-input":  KindEmptyInput,
		"role":         KindRole,
		"duplicate":    KindDuplicate,
		"maximal-set":  KindMaximalSet,
		"polarity":     KindPolarity,
		"unreachable":  KindUnreachable,
		"terminal":     KindTerminal,
		"start-range":  KindStart,
		"reconvergent": KindEntryValues,
	}
	for name, sp := range brokenSpecs() {
		vs := sp.Violations()
		if len(vs) == 0 {
			t.Errorf("%s: no violations", name)
			continue
		}
		found := false
		for _, v := range vs {
			if v.Kind == want[name] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: kinds %v do not include %v", name, vs, want[name])
		}
	}
}

// TestStateValuesPolarityConflict covers StateValues' error paths:
// a polarity conflict on a cycle and inconsistent entry values on
// reconvergent paths both surface as errors, not bogus vectors.
func TestStateValuesPolarityConflict(t *testing.T) {
	sp := twoState()
	sp.Arcs[1].In = Burst{{Name: "a", Rise: true}}
	vals, err := sp.StateValues()
	if err == nil {
		t.Fatalf("StateValues passed with vals %v", vals)
	}
	if !strings.Contains(err.Error(), "already holds value 1") {
		t.Errorf("error = %v, want polarity message", err)
	}
}

func TestStateValuesReconvergentConflict(t *testing.T) {
	vals, err := reconvergent().StateValues()
	if err == nil {
		t.Fatalf("StateValues passed with vals %v", vals)
	}
	if !strings.Contains(err.Error(), "inconsistent signal values") {
		t.Errorf("error = %v, want entry-values message", err)
	}
}

// refViolations is the map-based checker the bit-vector walk replaced,
// kept as the differential reference: valuations are map[string]bool,
// cloned on every arc. It returns the violations and, per state, the
// values of the first arrival in BFS order (nil for unreached states).
func refViolations(sp *Spec) ([]Violation, []map[string]bool) {
	var vs []Violation
	inSet := map[string]bool{}
	for _, s := range sp.Inputs {
		inSet[s] = true
	}
	outSet := map[string]bool{}
	for _, s := range sp.Outputs {
		outSet[s] = true
	}
	for i, a := range sp.Arcs {
		if len(a.In) == 0 {
			vs = append(vs, sp.violationf(KindEmptyInput, a.From, i, "",
				"arc %s has an empty input burst", a))
		}
		seen := map[string]bool{}
		for _, s := range a.In {
			if !inSet[s.Name] {
				vs = append(vs, sp.violationf(KindRole, a.From, i, s.Name,
					"arc %s: %s is not an input", a, s.Name))
			}
			if seen[s.Name] {
				vs = append(vs, sp.violationf(KindDuplicate, a.From, i, s.Name,
					"arc %s: signal %s appears twice in input burst", a, s.Name))
			}
			seen[s.Name] = true
		}
		seen = map[string]bool{}
		for _, s := range a.Out {
			if !outSet[s.Name] {
				vs = append(vs, sp.violationf(KindRole, a.From, i, s.Name,
					"arc %s: %s is not an output", a, s.Name))
			}
			if seen[s.Name] {
				vs = append(vs, sp.violationf(KindDuplicate, a.From, i, s.Name,
					"arc %s: signal %s appears twice in output burst", a, s.Name))
			}
			seen[s.Name] = true
		}
	}
	for s := 0; s < sp.NStates; s++ {
		arcs := sp.ArcsFrom(s)
		for i := 0; i < len(arcs); i++ {
			for j := i + 1; j < len(arcs); j++ {
				if arcs[i].In.SubsetOf(arcs[j].In) || arcs[j].In.SubsetOf(arcs[i].In) {
					vs = append(vs, sp.violationf(KindMaximalSet, s, -1, "",
						"state %d violates the maximal-set property: %q vs %q",
						s, arcs[i].In.String(), arcs[j].In.String()))
				}
			}
		}
	}
	from := make([][]int, sp.NStates)
	for i, a := range sp.Arcs {
		if a.From >= 0 && a.From < sp.NStates {
			from[a.From] = append(from[a.From], i)
		}
	}
	values := make([]map[string]bool, sp.NStates)
	start := map[string]bool{}
	for _, s := range sp.Inputs {
		start[s] = false
	}
	for _, s := range sp.Outputs {
		start[s] = false
	}
	if sp.Start < 0 || sp.Start >= sp.NStates {
		vs = append(vs, sp.violationf(KindStart, sp.Start, -1, "",
			"start state %d out of range (spec has %d states)", sp.Start, sp.NStates))
		return vs, values
	}
	values[sp.Start] = start
	queue := []int{sp.Start}
	reached := map[int]bool{sp.Start: true}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		v := values[s]
		for _, ai := range from[s] {
			a := sp.Arcs[ai]
			next := refClone(v)
			for _, sig := range append(a.In.Clone(), a.Out...) {
				if next[sig.Name] == sig.Rise {
					vs = append(vs, sp.violationf(KindPolarity, a.From, ai, sig.Name,
						"arc %s: transition %s but %s already holds value %v",
						a, sig, sig.Name, boolBit(next[sig.Name])))
				}
				next[sig.Name] = sig.Rise
			}
			if a.To < 0 || a.To >= sp.NStates {
				continue
			}
			if values[a.To] == nil {
				values[a.To] = next
			} else if !refSame(values[a.To], next) {
				vs = append(vs, sp.violationf(KindEntryValues, a.To, ai, "",
					"state %d entered with inconsistent signal values via arc %s", a.To, a))
			}
			if !reached[a.To] {
				reached[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	for s := 0; s < sp.NStates; s++ {
		if !reached[s] {
			vs = append(vs, sp.violationf(KindUnreachable, s, -1, "",
				"state %d is unreachable", s))
		}
		if len(from[s]) == 0 {
			vs = append(vs, sp.violationf(KindTerminal, s, -1, "",
				"state %d has no outgoing arcs", s))
		}
	}
	return vs, values
}

func refClone(v map[string]bool) map[string]bool {
	out := make(map[string]bool, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// refSame is the reference re-entry test: as many assigned names, and
// every name assigned in a has the same value in b (missing reads as
// false). It is not symmetric.
func refSame(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randSpec draws one spec for the differential test. The base is
// well-formed: a ring of states, each step toggling a non-empty random
// set of inputs and a random set of outputs, with diamond side paths
// that reconverge on the ring, and a closing arc back to all-zero.
// Then 0–3 random mutations break it: burst-only names, empty bursts,
// a signal twice in one burst, out-of-range From, To and Start, flipped
// polarities, retargeted, dropped, duplicated or reordered arcs, extra
// states and edges moved to the wrong burst. One spec in 40 has more
// than 64 signals. No signal is ever declared twice.
func randSpec(rng *rand.Rand) *Spec {
	nIn, nOut := 1+rng.Intn(3), 1+rng.Intn(3)
	if rng.Intn(40) == 0 {
		nIn, nOut = 40+rng.Intn(20), 25+rng.Intn(20)
	}
	sp := &Spec{Name: "r"}
	for i := 0; i < nIn; i++ {
		sp.Inputs = append(sp.Inputs, fmt.Sprintf("i%d", i))
	}
	for i := 0; i < nOut; i++ {
		sp.Outputs = append(sp.Outputs, fmt.Sprintf("o%d", i))
	}
	vals := map[string]bool{}
	// toggle returns the edges that flip the picked signals of vals.
	toggle := func(names []string, pick func(int) bool) Burst {
		var b Burst
		for k, name := range names {
			if pick(k) {
				b = append(b, Sig{Name: name, Rise: !vals[name]})
			}
		}
		return b
	}
	// toward returns the edges that take vals to target.
	toward := func(names []string, target map[string]bool) Burst {
		return toggle(names, func(k int) bool { return vals[names[k]] != target[names[k]] })
	}
	apply := func(b Burst) {
		for _, s := range b {
			vals[s.Name] = s.Rise
		}
	}
	coin := func(int) bool { return rng.Intn(2) == 0 }
	steps := 1 + rng.Intn(4)
	var ring []Arc
	for s := 0; s < steps; s++ {
		first := rng.Intn(nIn)
		in := toggle(sp.Inputs, func(k int) bool { return k == first || coin(k) })
		out := toggle(sp.Outputs, coin)
		if len(in) < nIn && rng.Intn(3) == 0 {
			// Side path: a disjoint input burst to a fresh state, then
			// on to the ring's next state with the same values.
			inB := map[string]bool{}
			for _, e := range in {
				inB[e.Name] = true
			}
			var free []int
			for k, name := range sp.Inputs {
				if !inB[name] {
					free = append(free, k)
				}
			}
			pickSide := free[rng.Intn(len(free))]
			sideIn := toggle(sp.Inputs, func(k int) bool { return k == pickSide || (!inB[sp.Inputs[k]] && coin(k)) })
			sideOut := toggle(sp.Outputs, coin)
			ring = append(ring, Arc{From: s, To: -1, In: sideIn, Out: sideOut}) // To patched below
			saved := refClone(vals)
			apply(sideIn)
			apply(sideOut)
			target := refClone(saved)
			for _, e := range append(in.Clone(), out...) {
				target[e.Name] = e.Rise
			}
			ring = append(ring, Arc{From: -2, To: s + 1, // From patched below
				In: toward(sp.Inputs, target), Out: toward(sp.Outputs, target)})
			vals = saved
		}
		ring = append(ring, Arc{From: s, To: s + 1, In: in, Out: out})
		apply(in)
		apply(out)
	}
	anyIn := false
	for _, name := range sp.Inputs {
		anyIn = anyIn || vals[name]
	}
	if !anyIn {
		k := rng.Intn(nIn)
		up := Burst{{Name: sp.Inputs[k], Rise: true}}
		ring = append(ring, Arc{From: steps, To: steps + 1, In: up})
		apply(up)
		steps++
	}
	zero := map[string]bool{}
	ring = append(ring, Arc{From: steps, To: 0, In: toward(sp.Inputs, zero), Out: toward(sp.Outputs, zero)})
	sp.NStates = steps + 1
	for i := range ring {
		if ring[i].To == -1 { // side state
			ring[i].To = sp.NStates
			ring[i+1].From = sp.NStates
			sp.NStates++
		}
	}
	sp.Arcs = ring

	burst := func(a *Arc) *Burst {
		if rng.Intn(2) == 0 {
			return &a.In
		}
		return &a.Out
	}
	for k := rng.Intn(4); k > 0; k-- {
		a := &sp.Arcs[rng.Intn(len(sp.Arcs))]
		switch rng.Intn(12) {
		case 0: // burst-only name; a small pool so paths can share it
			b := burst(a)
			*b = append(*b, Sig{Name: fmt.Sprintf("z%d", rng.Intn(2)), Rise: rng.Intn(2) == 0})
		case 1:
			*burst(a) = nil
		case 2: // a signal twice in one burst, same or opposite edge
			if b := burst(a); len(*b) > 0 {
				s := (*b)[rng.Intn(len(*b))]
				s.Rise = s.Rise != (rng.Intn(2) == 0)
				*b = append(*b, s)
			}
		case 3:
			a.From = []int{-1, sp.NStates, sp.NStates + 3}[rng.Intn(3)]
		case 4:
			a.To = []int{-1, sp.NStates, sp.NStates + 3}[rng.Intn(3)]
		case 5:
			sp.Start = []int{-1, sp.NStates, rng.Intn(sp.NStates)}[rng.Intn(3)]
		case 6:
			if b := *burst(a); len(b) > 0 {
				e := &b[rng.Intn(len(b))]
				e.Rise = !e.Rise
			}
		case 7:
			a.To = rng.Intn(sp.NStates)
		case 8:
			i := rng.Intn(len(sp.Arcs))
			sp.Arcs = append(sp.Arcs[:i:i], sp.Arcs[i+1:]...)
		case 9:
			sp.NStates++
		case 10: // an edge moved to the other burst
			if len(a.In) > 0 {
				a.Out = append(a.Out.Clone(), a.In[0])
				a.In = a.In[1:]
			} else if len(a.Out) > 0 {
				a.In = append(a.In.Clone(), a.Out[0])
				a.Out = a.Out[1:]
			}
		case 11: // a duplicated or reordered arc
			i, j := rng.Intn(len(sp.Arcs)), rng.Intn(len(sp.Arcs))
			if rng.Intn(2) == 0 {
				sp.Arcs = append(sp.Arcs, sp.Arcs[i])
			} else {
				sp.Arcs[i], sp.Arcs[j] = sp.Arcs[j], sp.Arcs[i]
			}
		}
		if len(sp.Arcs) == 0 {
			break
		}
	}
	return sp
}

// TestViolationsMatchReference runs the bit-vector walk and the
// map-based reference over seeded random specs: the full violation
// lists must be equal, and on clean specs every state's entry value of
// every signal too. The generator's coverage is asserted, so a change
// to it cannot silently stop exercising a violation kind, clean specs,
// burst-only names or multi-word vectors.
func TestViolationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	kinds := map[Kind]int{}
	clean, wide, burstOnly := 0, 0, 0
	for n := 0; n < 20000; n++ {
		sp := randSpec(rng)
		want, wantVals := refViolations(sp)
		got := sp.Violations()
		if !slices.Equal(got, want) {
			t.Fatalf("spec %d:\n%s\nwalk:\n%v\nreference:\n%v", n, sp, got, want)
		}
		for _, v := range got {
			kinds[v.Kind]++
			if v.Kind == KindRole && strings.HasPrefix(v.Sig, "z") {
				burstOnly++
			}
		}
		if len(sp.Inputs)+len(sp.Outputs) > 64 {
			wide++
		}
		if len(got) > 0 {
			continue
		}
		clean++
		vals, err := sp.StateValues()
		if err != nil {
			t.Fatalf("spec %d: StateValues on a clean spec: %v", n, err)
		}
		for s := 0; s < sp.NStates; s++ {
			for _, name := range append(append([]string{"z0"}, sp.Inputs...), sp.Outputs...) {
				if g, w := vals.Get(s, name), wantVals[s][name]; g != w {
					t.Fatalf("spec %d:\n%s\nstate %d, %s: walk %v, reference %v", n, sp, s, name, g, w)
				}
			}
		}
	}
	for k := KindEmptyInput; k < KindDeclaration; k++ {
		if kinds[k] < 20 {
			t.Errorf("kind %d reported on %d specs; the generator should reach it more often", k, kinds[k])
		}
	}
	if clean < 4000 || wide < 100 || burstOnly < 100 {
		t.Errorf("generator coverage: %d clean, %d wide, %d burst-only findings", clean, wide, burstOnly)
	}
	t.Logf("%d clean specs, %d wider than 64 signals, violation kinds %v", clean, wide, kinds)
}
