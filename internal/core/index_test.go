package core_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// runGrid runs T1 and T2 clustering, each with a fresh memo that
// prepare sets up first, on the grid TestClusteringMatchesSpeculativeSweep
// compares: every built-in and Balsa-compiled design at every state
// bound it uses.
func runGrid(t *testing.T, prepare func(label string, m core.Verdicts)) {
	t.Helper()
	balsa, err := designs.AllBalsa()
	if err != nil {
		t.Fatal(err)
	}
	algos := []struct {
		name string
		run  func(core.Verdicts, *core.Netlist, core.Options) (*core.Netlist, *core.Report, error)
	}{
		{"T1", core.Verdicts.T1},
		{"T2", core.Verdicts.T2},
	}
	for _, d := range append(designs.All(), balsa...) {
		for _, maxStates := range []int{0, 6, 8, 12, 16} {
			for _, a := range algos {
				m := core.NewVerdicts()
				label := fmt.Sprintf("%s %s MaxStates=%d", d.Name, a.name, maxStates)
				prepare(label, m)
				if _, _, err := a.run(m, d.Control(), core.Options{MaxStates: maxStates}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// The channel index a T1 run keeps across commits is what a rebuild
// gives: once built and after every commit, each channel's uses, in
// order, equal a fresh ChannelUses of the working netlist, and the
// channel list a sweep takes from it equals a fresh InternalPToP.
func TestChannelIndexMatchesRebuild(t *testing.T) {
	checks := 0
	runGrid(t, func(label string, m core.Verdicts) {
		m.OnIndex(func(n *core.Netlist, uses map[string][]core.ChanUse, channels []string) {
			checks++
			want, err := n.ChannelUses()
			if err != nil {
				t.Fatalf("%s: rebuild: %v", label, err)
			}
			if !reflect.DeepEqual(uses, want) {
				t.Fatalf("%s: index uses\n%v\nrebuild\n%v", label, uses, want)
			}
			wantChannels, err := n.InternalPToP()
			if err != nil {
				t.Fatalf("%s: rebuild: %v", label, err)
			}
			if !slices.Equal(channels, wantChannels) {
				t.Fatalf("%s: index channels %v, rebuild %v", label, channels, wantChannels)
			}
		})
	})
	t.Logf("%d index states checked", checks)
}

// Two body keys are equal exactly when the two ch.ToSexp texts are: on
// every body that enters a working netlist on the differential's grid,
// on the lint corpus (verb and mux bodies included) and on random
// bodies from the conformance fuzzer's generator, each also with one
// mutation of every kind (see mutants).
func TestBodyKeyMatchesToSexp(t *testing.T) {
	var bodies []ch.Expr
	seen := map[ch.Expr]bool{}
	runGrid(t, func(_ string, m core.Verdicts) {
		m.OnIndex(func(n *core.Netlist, _ map[string][]core.ChanUse, _ []string) {
			for _, c := range n.Components {
				if !seen[c.Body] {
					seen[c.Body] = true
					bodies = append(bodies, c.Body)
				}
			}
		})
	})
	grid := len(bodies)

	rng := rand.New(rand.NewSource(22))
	withMutants := func(e ch.Expr) {
		bodies = append(bodies, e)
		bodies = append(bodies, mutants(e, rng)...)
	}
	files, err := filepath.Glob("../../examples/lint/*.ch")
	if err != nil || len(files) == 0 {
		t.Fatalf("lint corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := core.ParseNetlist(string(src)); err == nil {
			for _, c := range n.Components {
				withMutants(c.Body)
			}
		} else if e, err := ch.Parse(string(src)); err == nil {
			withMutants(e)
		}
	}
	for i := 0; i < 300; i++ {
		e := core.GenBody(rng, rng.Intn(4)+1)
		withMutants(e)
		if m := withMult(e, rng); m != nil {
			withMutants(m)
		}
	}

	keyOf := map[string]string{}  // ToSexp text -> key
	textOf := map[string]string{} // key -> ToSexp text
	for _, e := range bodies {
		text, key := ch.ToSexp(e).String(), core.BodyKey(e)
		if k, ok := keyOf[text]; ok && k != key {
			t.Fatalf("equal ToSexp text, different keys: %s", text)
		}
		if x, ok := textOf[key]; ok && x != text {
			t.Fatalf("equal keys, different ToSexp texts:\n%s\n%s", x, text)
		}
		keyOf[text], textOf[key] = key, text
	}
	if len(keyOf) < 1000 {
		t.Fatalf("only %d distinct bodies; the test needs more variety", len(keyOf))
	}
	t.Logf("%d bodies (%d from the grid), %d distinct", len(bodies), grid, len(keyOf))
}

// mutants returns copies of e, each with one change: a renamed
// channel, a flipped activity, a swapped operator (of an Op or a mux
// arm), a changed mult count, a changed verb transition (edge, signal
// or direction), and three changes ToSexp does not render (a p-to-p's
// wire count, a verb's name, a position), which must keep the key.
// Kinds with nothing to change in e are left out.
func mutants(e ch.Expr, rng *rand.Rand) []ch.Expr {
	var out []ch.Expr
	mutate := func(pick func(ch.Expr) bool, apply func(ch.Expr)) {
		c := e.Clone()
		var nodes []ch.Expr
		ch.Walk(c, func(x ch.Expr) {
			if pick(x) {
				nodes = append(nodes, x)
			}
		})
		if len(nodes) > 0 {
			apply(nodes[rng.Intn(len(nodes))])
			out = append(out, c)
		}
	}
	chanOf := func(pick func(*ch.Chan) bool) func(ch.Expr) bool {
		return func(x ch.Expr) bool {
			c, ok := x.(*ch.Chan)
			return ok && pick(c)
		}
	}
	isVerb := func(c *ch.Chan) bool { return c.Kind == ch.Verb && len(c.Ev[0]) > 0 }

	mutate(func(x ch.Expr) bool {
		switch n := x.(type) {
		case *ch.Chan:
			return n.Kind != ch.Verb
		case *ch.MuxAck, *ch.MuxReq:
			return true
		}
		return false
	}, func(x ch.Expr) {
		switch n := x.(type) {
		case *ch.Chan:
			n.Name += "x"
		case *ch.MuxAck:
			n.Name += "x"
		case *ch.MuxReq:
			n.Name += "x"
		}
	})
	mutate(chanOf(func(c *ch.Chan) bool { return c.Kind != ch.Verb && c.Act != ch.Neutral }), func(x ch.Expr) {
		c := x.(*ch.Chan)
		c.Act = ch.Active - c.Act
	})
	mutate(func(x ch.Expr) bool { _, ok := x.(*ch.Op); return ok }, func(x ch.Expr) {
		op := x.(*ch.Op)
		op.Kind = (op.Kind + 1) % (ch.Mutex + 1)
	})
	mutate(func(x ch.Expr) bool {
		switch n := x.(type) {
		case *ch.MuxAck:
			return len(n.Arms) > 0
		case *ch.MuxReq:
			return len(n.Arms) > 0
		}
		return false
	}, func(x ch.Expr) {
		var arms []ch.MuxArm
		switch n := x.(type) {
		case *ch.MuxAck:
			arms = n.Arms
		case *ch.MuxReq:
			arms = n.Arms
		}
		arms[0].Op = (arms[0].Op + 1) % (ch.Mutex + 1)
	})
	mutate(chanOf(func(c *ch.Chan) bool { return c.Kind == ch.MultReq || c.Kind == ch.MultAck }), func(x ch.Expr) {
		x.(*ch.Chan).N++
	})
	for _, change := range []func(tr *ch.Trans){
		func(tr *ch.Trans) { tr.Rise = !tr.Rise },
		func(tr *ch.Trans) { tr.Signal += "x" },
		func(tr *ch.Trans) { tr.Dir = ch.Out - tr.Dir },
	} {
		mutate(chanOf(isVerb), func(x ch.Expr) {
			ev := x.(*ch.Chan).Ev[0]
			for i, it := range ev {
				if tr, ok := it.(ch.Trans); ok {
					change(&tr)
					ev[i] = tr
					return
				}
			}
		})
	}
	// Changes ToSexp does not render.
	mutate(chanOf(func(c *ch.Chan) bool { return c.Kind == ch.PToP }), func(x ch.Expr) {
		x.(*ch.Chan).N += 3
	})
	mutate(chanOf(isVerb), func(x ch.Expr) {
		x.(*ch.Chan).Name += "x"
	})
	mutate(func(ch.Expr) bool { return true }, func(x ch.Expr) {
		switch n := x.(type) {
		case *ch.Chan:
			n.Pos.Line += 100
		case *ch.Op:
			n.Pos.Line += 100
		case *ch.Rep:
			n.Pos.Line += 100
		}
	})
	return out
}

// withMult returns a copy of e with one p-to-p channel turned into a
// two-wire mult-req, or nil when e has none.
func withMult(e ch.Expr, rng *rand.Rand) ch.Expr {
	c := e.Clone()
	var leaves []*ch.Chan
	ch.Walk(c, func(x ch.Expr) {
		if l, ok := x.(*ch.Chan); ok && l.Kind == ch.PToP {
			leaves = append(leaves, l)
		}
	})
	if len(leaves) == 0 {
		return nil
	}
	l := leaves[rng.Intn(len(leaves))]
	l.Kind, l.N = ch.MultReq, 2
	return c
}

// Clustering rejects a netlist in which two components share a name
// before its first probe: the channel index, Find and remove all key
// components by name, so a merge would silently drop both. The opt arm
// once shipped 1 controller for this 3-component netlist.
func TestClusteringRejectsDuplicateNames(t *testing.T) {
	n, err := core.ParseNetlist(`
(program a (rep (enc-early (p-to-p passive go) (p-to-p active c))))
(program b (rep (enc-early (p-to-p passive c) (p-to-p active out))))
(program a (rep (enc-early (p-to-p passive go2) (p-to-p active out2))))`)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(core.Verdicts, *core.Netlist, core.Options) (*core.Netlist, *core.Report, error){
		"T1": core.Verdicts.T1,
		"T2": core.Verdicts.T2,
	} {
		m := core.NewVerdicts()
		if _, _, err := run(m, n, core.Options{}); err == nil || !strings.Contains(err.Error(), `two components named "a"`) {
			t.Errorf("%s: got %v, want an error naming the duplicate", name, err)
		}
		if m.Compiles() != 0 {
			t.Errorf("%s: compiled %d candidates before rejecting the netlist", name, m.Compiles())
		}
	}
	if _, _, err := core.OptimizeOpt(n, core.Options{}); err == nil || !strings.Contains(err.Error(), `two components named "a"`) {
		t.Errorf("OptimizeOpt: got %v, want an error naming the duplicate", err)
	}
}

// collidingFragments has a 2-way call c on channel x and a component
// already named "c#1", the name T2 once gave c's first fragment.
const collidingFragments = `
(program caller (rep (enc-early (p-to-p passive go) (p-to-p active act))))
(program c (rep (mutex (enc-early (p-to-p passive act) (p-to-p active x)) (enc-early (p-to-p passive c2) (p-to-p active x)))))
(program user (rep (enc-early (p-to-p passive x) (p-to-p active out))))
(program c#1 (rep (enc-early (p-to-p passive go3) (p-to-p active c2))))`

// TestCallFragmentsAvoidNamesInUse: T2 names a call's fragments
// "<call>#<k>" with the next k no component or fragment has, so a
// component named like a fragment clusters instead of failing as a
// duplicate name. c's fragments (c#2, c#3) end in different
// controllers, so c is restored and then absorbs user: 3 controllers.
func TestCallFragmentsAvoidNamesInUse(t *testing.T) {
	n, err := core.ParseNetlist(collidingFragments)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := core.OptimizeOpt(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range out.Components {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, " "); got != "c c#1 caller" {
		t.Errorf("clustered components %q, want \"c c#1 caller\"", got)
	}
	if fmt.Sprint(rep.CallsRestored) != "[c]" || rep.Containment["c#1"] != "c#1" || rep.Containment["user"] != "c" {
		t.Errorf("report: restored %v, containment %v", rep.CallsRestored, rep.Containment)
	}
}
