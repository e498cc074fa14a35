package netlint_test

// Agreement between the synthesis flow and the netlist analyzer: every
// circuit the flow itself emits — each mapped controller and the merged
// per-arm circuit, for programs legal by construction per Table 1 —
// must carry zero error-severity NL findings. The analyzer exists to
// catch miswired hand edits and regressions, not to cry wolf on the
// back-end's own output. (External test package: flow imports netlint.)

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/core"
	"balsabm/internal/flow"
	"balsabm/internal/netlint"
)

// genLegal mirrors the chtobm fuzzers' generator: CH expressions legal
// by construction per Table 1.
type genLegal struct {
	rng  *rand.Rand
	next int
}

func (g *genLegal) fresh() string {
	g.next++
	return fmt.Sprintf("c%d", g.next)
}

func (g *genLegal) gen(act ch.Activity, depth int) ch.Expr {
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

func (g *genLegal) genAny(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.gen(ch.Active, depth)
	}
	return g.gen(ch.Passive, depth)
}

// genComponent wraps a generated body the way every real component is
// shaped: a repeated handshake from a passive activation channel
// driving an active body. (Not every Table 1-legal program is
// synthesizable — deeply enclosed passive channels can compile to
// inconsistent hazard-free specs the flow rejects up front — so the
// generator sticks to the shape real components take; the callers skip
// and bound the residue.)
func genComponent(g *genLegal, name string, depth int) *ch.Program {
	body := &ch.Rep{Body: &ch.Op{
		Kind: ch.EncEarly,
		A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "act_" + name},
		B:    g.gen(ch.Active, depth),
	}}
	return &ch.Program{Name: name, Body: body}
}

// requireClean fails the test if any controller or the merged circuit
// carries an error-severity finding.
func requireClean(t *testing.T, fuzz int, ctrls []netlint.Result, merged netlint.Result) {
	t.Helper()
	for _, res := range append(append([]netlint.Result{}, ctrls...), merged) {
		if netlint.HasErrors(res.Diags) {
			for _, d := range res.Diags {
				t.Logf("%s", d.Render(res.Name))
			}
			t.Fatalf("fuzz %d: flow-emitted circuit %s has NL errors", fuzz, res.Name)
		}
	}
}

// auditArm runs one arm of n through the flow's checked synthesis and
// requires every controller it mapped, and their merged circuit, free
// of NL-errors — also when a netlint or hazver gate failed the arm. It
// reports false when the arm stopped before mapping (the flow rejected
// the program, so nothing was emitted to audit).
func auditArm(t *testing.T, fuzz int, n *core.Netlist, arm string) bool {
	t.Helper()
	c, err := flow.SynthesizeCheckedCtx(context.Background(), "fuzz", arm, n, nil)
	if c == nil || c.Mapped == nil {
		t.Logf("fuzz %d: flow rejected the program (%v); nothing emitted, nothing to audit", fuzz, err)
		return false
	}
	requireClean(t, fuzz, flow.NetlintControllers("fuzz", arm, c.Mapped, cell.AMS035()), c.Netlint)
	return true
}

// TestFuzzFlowCircuitsPassNetlint: unoptimized arm — every generated
// legal netlist maps to controllers and a merged circuit with zero
// NL-errors.
func TestFuzzFlowCircuitsPassNetlint(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(19991123))
	skipped := 0
	for i := 0; i < iters; i++ {
		g := &genLegal{rng: rng}
		n := &core.Netlist{Components: []*ch.Program{
			genComponent(g, "a", rng.Intn(3)+1),
			genComponent(g, "b", rng.Intn(2)+1),
		}}
		if !auditArm(t, i, n, "unopt") {
			skipped++
		}
	}
	if skipped > iters/3 {
		t.Fatalf("generator too often unsynthesizable: %d/%d skipped", skipped, iters)
	}
}

// TestFuzzClusteredCircuitsPassNetlint: optimized arm — the clustered
// netlist, speed-split mapped, is equally clean. Fewer iterations:
// clustering legality probes dominate the runtime.
func TestFuzzClusteredCircuitsPassNetlint(t *testing.T) {
	iters := 10
	if testing.Short() {
		iters = 3
	}
	rng := rand.New(rand.NewSource(20010910))
	ctx := context.Background()
	skipped := 0
	for i := 0; i < iters; i++ {
		g := &genLegal{rng: rng}
		n := &core.Netlist{Components: []*ch.Program{
			genComponent(g, "a", rng.Intn(2)+1),
			genComponent(g, "b", rng.Intn(2)+1),
		}}
		if _, _, err := core.OptimizeOpt(n, core.Options{Ctx: ctx}); err != nil {
			t.Fatalf("fuzz %d: clustering failed: %v\n%s", i, err, n.Format())
		}
		if !auditArm(t, i, n, "opt") {
			skipped++
		}
	}
	if skipped > iters/3 {
		t.Fatalf("generator too often unsynthesizable: %d/%d skipped", skipped, iters)
	}
}
