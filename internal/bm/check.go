package bm

import (
	"fmt"
	"sort"
)

// CheckError reports a Burst-Mode well-formedness violation.
type CheckError struct {
	Spec string
	Msg  string
}

func (e *CheckError) Error() string { return fmt.Sprintf("bm: %s: %s", e.Spec, e.Msg) }

// Check verifies the Burst-Mode well-formedness conditions:
//
//  1. every signal is declared once, as an input or as an output;
//  2. every arc's input burst is non-empty;
//  3. outputs never appear in input bursts and vice versa;
//  4. the maximal-set property: for any two distinct arcs leaving the
//     same state, neither input burst is a subset of the other (so the
//     machine can always tell which burst has completed);
//  5. polarity consistency: starting from the all-zero initial values,
//     every transition on every reachable path toggles its signal from
//     the value it actually holds (no x+ when x is already 1);
//  6. every reachable state has at least one outgoing arc (our
//     controllers are non-terminating), and all states are reachable.
//
// Check returns the first of the violations the walk behind Violations
// (shared with bmlint and StateValues) finds, so the three can never
// disagree on what is well-formed.
func (sp *Spec) Check() error {
	_, err := sp.StateValues()
	return err
}

// Values holds the signal values with which each state of a
// well-formed spec is entered, one bit per signal.
type Values struct {
	index  map[string]int
	stride int      // words per state
	bits   []uint64 // state s's values start at bits[s*stride]
}

// Get reports the value signal name holds on entry to state, after the
// entering arc's bursts complete. Names the spec does not declare read
// as 0.
func (v Values) Get(state int, name string) bool {
	i, ok := v.index[name]
	return ok && v.bits[state*v.stride+i/64]>>(i%64)&1 != 0
}

// StateValues returns the signal values (inputs and outputs) with which
// each state is entered. It fails with Check's error on a spec that is
// not well-formed; both come from the same walk.
func (sp *Spec) StateValues() (Values, error) {
	vs, vals := sp.walk()
	if len(vs) > 0 {
		return Values{}, &CheckError{Spec: sp.Name, Msg: vs[0].Msg}
	}
	return vals, nil
}

// Signals returns all signal names (inputs then outputs), sorted.
func (sp *Spec) Signals() []string {
	out := append(append([]string{}, sp.Inputs...), sp.Outputs...)
	sort.Strings(out)
	return out
}
