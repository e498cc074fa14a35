package flow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/gates"
	"balsabm/internal/hazver"
	"balsabm/internal/techmap"
)

// TestHazverSubsumesCheckMapped is the differential behind making the
// hazver gate the flow's only mapped-logic check. Every distinct
// controller shape of the Table 3 designs, unclustered and clustered,
// and of 40 seeded random netlists is mapped SpeedSplit (components
// minimalist rejects are skipped). Mapping faults are injected into
// every instance, and both checkers judge each mutant. Every mutant
// techmap.CheckMapped rejects must either carry an HZ error or agree
// with the covers at every binary point of every specified transition
// cube — the points fundamental mode reaches. A CheckMapped-only
// rejection is therefore a difference at a point the controller never
// visits. The opposite direction, a hazard only hazver sees, is
// TestHazverInjectedHazard.
func TestHazverSubsumesCheckMapped(t *testing.T) {
	if testing.Short() {
		t.Skip("judges thousands of mapping mutants with both checkers")
	}
	lib := cell.AMS035()
	var nets []*core.Netlist
	for _, d := range designs.All() {
		clustered, _, err := core.OptimizeOpt(d.Control(), core.Options{})
		if err != nil {
			t.Fatalf("%s: clustering: %v", d.Name, err)
		}
		nets = append(nets, d.Control(), clustered)
	}
	rng := rand.New(rand.NewSource(20020304))
	for i := 0; i < 40; i++ {
		g := &incrGen{rng: rng}
		n := &core.Netlist{}
		for k := rng.Intn(2) + 2; k > 0; k-- {
			n.Components = append(n.Components, g.component(fmt.Sprintf("r%dc%d", i, k)))
		}
		nets = append(nets, n)
	}

	seen := map[string]bool{}
	var units []synthUnit
	rejected := 0
	for _, n := range nets {
		for _, comp := range n.Components {
			key := "raw|" + comp.Name
			if canon, ok := ch.CanonicalizeProgram(comp); ok {
				key = canon.Key
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			su, err := synthShapeUnit(t, comp, techmap.SpeedSplit, lib)
			if err != nil {
				rejected++
				continue
			}
			units = append(units, su)
		}
	}

	var mutants, both, cmOnly, hzOnly, missed int
	for _, su := range units {
		for _, m := range mappingMutants(su.nl, lib) {
			mutants++
			cmErr := techmap.CheckMapped(su.ctrl, m.nl, lib)
			u := su.unit
			u.Netlist = m.nl
			hz := hazver.HasErrors(hazver.Audit(u.Name, []hazver.Unit{u}, lib, hazver.Options{}).Diags)
			switch {
			case cmErr != nil && hz:
				both++
			case cmErr != nil:
				cmOnly++
				points, diff := cubeDisagreement(t, su, m.nl, lib)
				if diff != "" {
					t.Errorf("%s %s: CheckMapped rejects it (%v) and hazver passes it, yet it differs from the covers on a specified cube: %s",
						u.Name, m.what, cmErr, diff)
				} else {
					t.Logf("%s %s: rejected by CheckMapped only, agrees with the covers on all %d cube points", u.Name, m.what, points)
				}
			case hz:
				hzOnly++
			default:
				missed++
			}
		}
	}
	t.Logf("%d units (%d shapes rejected by minimalist), %d mutants: %d rejected by both, %d by CheckMapped only, %d by hazver only, %d by neither",
		len(units), rejected, mutants, both, cmOnly, hzOnly, missed)
	if len(units) < 50 || both == 0 {
		t.Fatalf("differential is vacuous: %d units, %d mutants rejected by both", len(units), both)
	}
}

// mutant is one mapping fault injected into a copy of a netlist.
type mutant struct {
	what string
	nl   *gates.Netlist
}

// flippedKind pairs each mapped cell function with its complement.
var flippedKind = map[cell.Kind]cell.Kind{
	cell.Nand: cell.And, cell.And: cell.Nand,
	cell.Nor: cell.Or, cell.Or: cell.Nor,
	cell.Inv: cell.Buf, cell.Buf: cell.Inv,
}

// cellName names the k-input cell of a kind; one-input NAND and NOR
// are INV, one-input AND and OR are BUF.
func cellName(k cell.Kind, inputs int) string {
	if inputs == 1 || k == cell.Inv || k == cell.Buf {
		switch k {
		case cell.Nand, cell.Nor, cell.Inv:
			return "INV"
		default:
			return "BUF"
		}
	}
	return fmt.Sprintf("%s%d", k, inputs)
}

// mappingMutants injects into every instance of a mapped netlist the
// faults a technology mapper can make, each in its own copy: the cell's
// function flipped (NANDk↔ANDk, NORk↔ORk, INV↔BUF), each input dropped
// in turn (a k-input cell becomes its k−1-input form), and one input
// rewired to a primary input. A fault whose cell the library lacks is
// skipped.
func mappingMutants(nl *gates.Netlist, lib *cell.Library) []mutant {
	var out []mutant
	add := func(what string, i int, name string, ins []int) {
		if _, ok := lib.Cells[name]; !ok {
			return
		}
		m := nl.Rename(nl.Name, nil)
		m.Instances[i].Cell, m.Instances[i].Inputs = name, ins
		out = append(out, mutant{what: fmt.Sprintf("g%d %s", i, what), nl: m})
	}
	for i, inst := range nl.Instances {
		c, k := lib.Cells[inst.Cell], len(inst.Inputs)
		if c == nil || k == 0 {
			continue
		}
		if f, ok := flippedKind[c.Kind]; ok {
			add(fmt.Sprintf("%s→%s", inst.Cell, cellName(f, k)), i, cellName(f, k), inst.Inputs)
		}
		if k > 1 {
			for j := range inst.Inputs {
				ins := slices.Delete(slices.Clone(inst.Inputs), j, j+1)
				add(fmt.Sprintf("%s drops input %d", inst.Cell, j), i, cellName(c.Kind, k-1), ins)
			}
		}
		for _, p := range nl.Inputs {
			if !slices.Contains(inst.Inputs, p) {
				ins := slices.Clone(inst.Inputs)
				ins[i%k] = p
				add(fmt.Sprintf("%s input %d rewired to %s", inst.Cell, i%k, nl.NetNames[p]), i, inst.Cell, ins)
				break
			}
		}
	}
	return out
}

// cubeDisagreement evaluates a mapped netlist, with outputs and y* nets
// forced as CheckMapped forces them, at every binary point of every
// specified transition cube of every function, and compares each
// function with its cover. It returns the number of points evaluated
// and the first disagreement ("" when there is none).
func cubeDisagreement(t testing.TB, su synthUnit, nl *gates.Netlist, lib *cell.Library) (int, string) {
	t.Helper()
	ctrl := su.ctrl
	type fn struct {
		name  string
		net   int
		cover func([]bool) bool
	}
	var fns []fn
	for _, z := range ctrl.Spec.Outputs {
		fns = append(fns, fn{z, nl.Net(z), ctrl.Outputs[z].Eval})
	}
	for i, cv := range ctrl.NextState {
		y := fmt.Sprintf("y%d", i)
		fns = append(fns, fn{y, nl.Net(y), cv.Eval})
	}
	forced := map[int]bool{}
	for _, f := range fns {
		forced[f.net] = true
	}
	prog, err := gates.Compile(nl, lib, forced)
	if err != nil {
		t.Fatalf("%s: compile mutant: %v", nl.Name, err)
	}
	ev := prog.NewEval()
	points := 0
	for _, f := range fns {
		for ti, tr := range ctrl.Transitions[f.name] {
			changed := tr.Changed()
			pt := slices.Clone(tr.Start)
			for mask := 0; mask < 1<<len(changed); mask++ {
				for b, v := range changed {
					pt[v] = tr.Start[v] != (mask>>b&1 == 1)
				}
				ev.Reset()
				for i, v := range ctrl.Vars {
					if nl.HasNet(v) && pt[i] {
						ev.Set(nl.Net(v), ^uint64(0))
					}
				}
				ev.Run()
				points++
				w, _ := ev.Driver(f.net)
				if got := w&1 != 0; got != f.cover(pt) {
					return points, fmt.Sprintf("function %s, transition %d, point %v: netlist %t, cover %t", f.name, ti, pt, got, !got)
				}
			}
		}
	}
	return points, ""
}
