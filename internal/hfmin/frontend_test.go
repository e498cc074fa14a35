package hfmin

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"balsabm/internal/logic"
)

// privileged is a dynamic 1→0 transition cube with its start point.
type privileged struct {
	cube  logic.Cube
	start []bool
}

// setsRef is the original []Lit front end, kept verbatim as the
// reference TestFrontEndMatchesSets pins workspace.load to. It computes
// the ON cubes, OFF cubes, required cubes and privileged cubes of the
// instance, checking specification consistency.
func (p *Problem) setsRef() (on, off, required logic.Cover, priv []privileged, err error) {
	for i, t := range p.Transitions {
		if len(t.Start) != p.Vars || len(t.End) != p.Vars {
			return nil, nil, nil, nil, fmt.Errorf("hfmin: transition %d has wrong arity", i)
		}
		T := t.Cube()
		ch := t.Changed()
		if len(ch) == 0 && t.From != t.To {
			return nil, nil, nil, nil, fmt.Errorf("hfmin: transition %d changes value without input change", i)
		}
		switch {
		case t.From && t.To: // static 1
			on = append(on, T)
			required = append(required, T)
		case !t.From && !t.To: // static 0
			off = append(off, T)
		case t.From && !t.To: // dynamic 1→0
			for _, v := range ch {
				sub := T.Clone()
				if t.Start[v] {
					sub[v] = logic.One
				} else {
					sub[v] = logic.Zero
				}
				on = append(on, sub)
				required = append(required, sub)
			}
			off = append(off, logic.Point(t.End))
			priv = append(priv, privileged{cube: T, start: t.Start})
		default: // dynamic 0→1
			for _, v := range ch {
				sub := T.Clone()
				if t.Start[v] {
					sub[v] = logic.One
				} else {
					sub[v] = logic.Zero
				}
				off = append(off, sub)
			}
			on = append(on, logic.Point(t.End))
			required = append(required, logic.Point(t.End))
		}
	}
	// Consistency: the specified ON and OFF sets must be disjoint.
	for _, o := range on {
		for _, f := range off {
			if o.Intersects(f) {
				return nil, nil, nil, nil, &ConflictError{On: o, Off: f}
			}
		}
	}
	required = required.Dedup()
	return on, off, required, priv, nil
}

// loadWorkspace runs the packed front end on p in a fresh workspace.
func loadWorkspace(tb testing.TB, p *Problem) *workspace {
	tb.Helper()
	ws := new(workspace)
	if err := ws.load(p); err != nil {
		tb.Fatal(err)
	}
	return ws
}

// widthProblems returns seeded random instances over 0, 1, 63, 64, 65
// and 130 variables: a ragged final word, exactly one word, one bit
// past it, and three words. They are not filtered for consistency, and
// some carry a transition of the wrong arity or a value change without
// an input change, so every error path of the front end is reached.
func widthProblems(seed int64) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	var out []*Problem
	for _, vars := range []int{0, 1, 63, 64, 65, 130} {
		for n := 0; n < 40; n++ {
			p := &Problem{Vars: vars}
			// A shared base point keeps transitions close enough to
			// interact: most problems conflict, the rest are consistent.
			base := make([]bool, vars)
			for v := range base {
				base[v] = rng.Intn(2) == 0
			}
			for i := 1 + rng.Intn(8); i > 0; i-- {
				a := append([]bool(nil), base...)
				for j := rng.Intn(4); j > 0 && vars > 0; j-- {
					v := rng.Intn(vars)
					a[v] = !a[v]
				}
				b := append([]bool(nil), a...)
				for j := rng.Intn(4); j > 0 && vars > 0; j-- {
					v := rng.Intn(vars)
					b[v] = !b[v]
				}
				switch rng.Intn(30) {
				case 0:
					a = a[:len(a)/2]
				case 1:
					b = append(b, true)
				}
				p.Transitions = append(p.Transitions, Transition{
					Start: a, End: b, From: rng.Intn(2) == 0, To: rng.Intn(2) == 0})
			}
			out = append(out, p)
		}
	}
	return out
}

// The packed front end must build the same ON, OFF, required and
// privileged cubes as setsRef, in the same order, and fail with the
// same error text: wrong arity, a value change without an input change
// and ConflictError (with the same cube pair). One workspace serves
// every problem, so its buffers are reused across widths.
func TestFrontEndMatchesSets(t *testing.T) {
	type named struct {
		name string
		p    *Problem
	}
	var problems []named
	for i, p := range randomProblems(1, 100) {
		problems = append(problems, named{fmt.Sprintf("random %d", i), p})
	}
	for i, p := range oracleProblems() {
		problems = append(problems, named{fmt.Sprintf("oracle %d", i), p})
	}
	for _, f := range []string{"stack-most-leaves.hfp", "corpus-over-budget.hfp", "table3.hfp"} {
		labels, ps := loadProblems(t, f)
		for i, p := range ps {
			problems = append(problems, named{f + " " + labels[i], p})
		}
	}
	for i, p := range widthProblems(1) {
		problems = append(problems, named{fmt.Sprintf("%d-variable %d", p.Vars, i), p})
	}

	outcomes := map[string]int{}
	var ws workspace
	for _, np := range problems {
		on, off, required, priv, wantErr := np.p.setsRef()
		err := ws.load(np.p)
		var wantConflict, gotConflict *ConflictError
		switch {
		case wantErr == nil:
			outcomes["consistent"]++
		case errors.As(wantErr, &wantConflict):
			outcomes["conflict"]++
		case strings.HasSuffix(wantErr.Error(), " has wrong arity"):
			outcomes["arity"]++
		case strings.HasSuffix(wantErr.Error(), " changes value without input change"):
			outcomes["no input change"]++
		}
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, reference %v", np.name, err, wantErr)
			}
			if wantConflict != nil && (!errors.As(err, &gotConflict) ||
				!gotConflict.On.Equal(wantConflict.On) || !gotConflict.Off.Equal(wantConflict.Off)) {
				t.Errorf("%s: %#v, reference %#v", np.name, err, wantErr)
			}
			continue
		}
		sameCubes := func(what string, got []logic.PackedCube, want logic.Cover) {
			t.Helper()
			if len(got) != len(want) {
				t.Errorf("%s: %d %s cubes, reference %d", np.name, len(got), what, len(want))
				return
			}
			for i := range got {
				if c := ws.sp.Unpack(got[i]); !c.Equal(want[i]) {
					t.Errorf("%s: %s cube %d is %s, reference %s", np.name, what, i, c, want[i])
					return
				}
			}
		}
		sameCubes("ON", ws.on, on)
		sameCubes("OFF", ws.off, off)
		sameCubes("required", ws.req, required)
		if len(ws.priv) != len(priv) {
			t.Errorf("%s: %d privileged cubes, reference %d", np.name, len(ws.priv), len(priv))
			continue
		}
		for i, pv := range priv {
			if c := ws.sp.Unpack(ws.priv[i].cube); !c.Equal(pv.cube) {
				t.Errorf("%s: privileged cube %d is %s, reference %s", np.name, i, c, pv.cube)
			}
			if start := ws.sp.PointWords(pv.start); fmt.Sprint(start) != fmt.Sprint(ws.priv[i].start) {
				t.Errorf("%s: privileged start %d is %x, reference %x", np.name, i, ws.priv[i].start, start)
			}
		}
	}
	t.Logf("%d problems by outcome: %v", len(problems), outcomes)
	for _, outcome := range []string{"consistent", "conflict", "arity", "no input change"} {
		if outcomes[outcome] == 0 {
			t.Errorf("no problem reached outcome %q", outcome)
		}
	}
}
