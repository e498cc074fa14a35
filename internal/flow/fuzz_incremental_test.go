package flow

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/gates"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

// incrGen generates random legal-by-construction CH controller bodies,
// mirroring the chtobm fuzzer's Table 1 discipline so every program
// compiles into a well-formed Burst-Mode specification.
type incrGen struct {
	rng  *rand.Rand
	next int
}

func (g *incrGen) fresh() string {
	g.next++
	return fmt.Sprintf("c%d", g.next)
}

func (g *incrGen) gen(act ch.Activity, depth int) ch.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return &ch.Chan{Kind: ch.PToP, Act: act, Name: g.fresh()}
	}
	if act == ch.Active {
		switch g.rng.Intn(4) {
		case 0:
			return &ch.Op{Kind: ch.EncEarly, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		case 1:
			return &ch.Op{Kind: ch.EncMiddle, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		case 2:
			return &ch.Op{Kind: ch.Seq, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		default:
			return &ch.Op{Kind: ch.SeqOv, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return &ch.Op{Kind: ch.EncEarly, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 1:
		return &ch.Op{Kind: ch.EncMiddle, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 2:
		return &ch.Op{Kind: ch.EncLate, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 3:
		return &ch.Op{Kind: ch.Seq, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	default:
		return &ch.Op{Kind: ch.Mutex, A: g.gen(ch.Passive, depth-1), B: g.gen(ch.Passive, depth-1)}
	}
}

func (g *incrGen) genAny(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.gen(ch.Active, depth)
	}
	return g.gen(ch.Passive, depth)
}

// component wraps a generated body as one controller of a netlist: a
// repeated enclosure on a private activation channel, the shape every
// handshake-component controller has.
func (g *incrGen) component(name string) *ch.Program {
	return &ch.Program{Name: name, Body: &ch.Rep{Body: &ch.Op{
		Kind: ch.EncEarly,
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: g.fresh() + "act"},
		B:    g.genAny(g.rng.Intn(3) + 1),
	}}}
}

// TestFuzzIncrementalEdit is the randomized acceptance pin for the
// tentpole: generate a netlist, edit one controller, and check that an
// incremental resynthesis against the cached base is byte-identical to
// a from-scratch run of the edited netlist — with the same bmlint and
// netlint verdicts (no error findings, and no diagnostics introduced
// or lost by splicing) and the expected reuse accounting.
func TestFuzzIncrementalEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes dozens of random netlists")
	}
	rng := rand.New(rand.NewSource(20020304)) // DATE 2002
	lib := cell.AMS035()
	// Not every Table 1-legal program is synthesizable end to end (the
	// minimalist stage rejects some exotic shapes as inconsistent), so
	// samples where even a from-scratch run fails are discarded — the
	// property under test is scratch/incremental equivalence, and a
	// success quota keeps the discard rate honest.
	const wantIters = 15
	success := 0
	for i := 0; i < 120 && success < wantIters; i++ {
		g := &incrGen{rng: rng}
		ncomp := rng.Intn(2) + 2
		base := &core.Netlist{}
		for k := 0; k < ncomp; k++ {
			base.Components = append(base.Components, g.component(fmt.Sprintf("ctl%d", k)))
		}
		// Single-controller edit: regenerate one component's body.
		edited := &core.Netlist{}
		edit := rng.Intn(ncomp)
		for k, c := range base.Components {
			if k == edit {
				edited.Components = append(edited.Components, g.component(c.Name))
			} else {
				edited.Components = append(edited.Components, c)
			}
		}

		// Legal by construction: the edited netlist passes the bmlint
		// gate with no error findings.
		if _, err := BmlintGate("fuzz", "opt", edited, nil); err != nil {
			t.Fatalf("iter %d: bmlint gate failed: %v", i, err)
		}

		workers := rng.Intn(4) + 1
		ctl := NewMemoryControllerCache()
		seedMet := &Metrics{}
		if _, _, err := checkedNetlist(base, techmap.SpeedSplit,
			&Options{Metrics: seedMet, Controllers: ctl, Workers: workers}); err != nil {
			continue // base not synthesizable; discard the sample
		}

		scratchMapped, scratchRes, err := checkedNetlist(edited, techmap.SpeedSplit, &Options{Workers: workers})
		if err != nil {
			continue // edit not synthesizable; discard the sample
		}
		success++
		met := &Metrics{}
		incrMapped, incrRes, err := checkedNetlist(edited, techmap.SpeedSplit,
			&Options{Metrics: met, Controllers: ctl, Workers: workers})
		if err != nil {
			t.Fatalf("iter %d: incremental synthesis: %v", i, err)
		}

		for k := range scratchMapped {
			a, err := gates.EncodeJSON(scratchMapped[k])
			if err != nil {
				t.Fatal(err)
			}
			b, err := gates.EncodeJSON(incrMapped[k])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("iter %d: controller %s differs between scratch and incremental:\n%s\n%s",
					i, edited.Components[k].Name, a, b)
			}
		}
		if !reflect.DeepEqual(scratchRes, incrRes) {
			t.Fatalf("iter %d: reports differ", i)
		}
		// Everything the edit left alone must have been served from the
		// cache: no distinct canonical shape is resynthesized unless the
		// edited component introduced it.
		if met.ControllersReused.Load() == 0 {
			t.Fatalf("iter %d: incremental run reused nothing", i)
		}
		if met.ControllersResynthesized.Load() > 1 {
			t.Fatalf("iter %d: resynthesized %d shapes for a one-controller edit",
				i, met.ControllersResynthesized.Load())
		}

		// The merged circuits carry identical netlint verdicts, with no
		// error-severity findings on the spliced result.
		scratchAudit, err := NetlintGate("fuzz", "opt", scratchMapped, lib, nil)
		if err != nil {
			t.Fatalf("iter %d: scratch netlint errors: %v", i, err)
		}
		incrAudit, err := NetlintGate("fuzz", "opt", incrMapped, lib, nil)
		if err != nil {
			t.Fatalf("iter %d: spliced netlint errors: %v", i, err)
		}
		if netlint.Format(scratchAudit.Diags, "fuzz") != netlint.Format(incrAudit.Diags, "fuzz") {
			t.Fatalf("iter %d: splicing changed the netlint report", i)
		}
	}
	if success < wantIters {
		t.Fatalf("only %d/%d samples were synthesizable — generator degraded", success, wantIters)
	}
}
