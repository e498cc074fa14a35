package core

import (
	"math/rand"

	"balsabm/internal/ch"
)

// Verdicts gives the external tests a clustering call's legality memo,
// so they can share one across calls and read its compile count.
type Verdicts struct{ v *verdicts }

func NewVerdicts() Verdicts { return Verdicts{newVerdicts()} }

// Compiles reports how many candidate merges the memo compiled.
func (m Verdicts) Compiles() int64 { return m.v.compiles }

// T1 is T1ClusteringOpt with the memo m.
func (m Verdicts) T1(n *Netlist, opt Options) (*Netlist, *Report, error) {
	return t1Cluster(n.Clone(), opt, m.v)
}

// T2 is T2ClusteringOpt with the memo m.
func (m Verdicts) T2(n *Netlist, opt Options) (*Netlist, *Report, error) {
	return t2Cluster(n, opt, m.v)
}

// T2Round runs one T2 round with the memo m, keeping the calls in
// noSplit intact, and returns the calls it restored.
func (m Verdicts) T2Round(n *Netlist, noSplit map[string]bool, opt Options) ([]string, error) {
	_, _, restored, err := t2Round(n, noSplit, opt, m.v)
	return restored, err
}

// OnIndex makes the memo's T1 runs call fn with the working netlist,
// its channel index's per-channel uses and the channel list a sweep
// would take from the index: once the index is built, and after every
// commit. fn must not modify uses.
func (m Verdicts) OnIndex(fn func(n *Netlist, uses map[string][]ChanUse, channels []string)) {
	m.v.indexed = func(n *Netlist, ix *chanIndex) { fn(n, ix.uses, internalPToP(nil, ix.uses)) }
}

// BodyKey is the verdict memo's key for the body e.
func BodyKey(e ch.Expr) string { return string(appendBody(nil, e)) }

// GenBody draws a random CH expression of at most the given depth from
// the conformance fuzzer's generator.
func GenBody(rng *rand.Rand, depth int) ch.Expr {
	return (&genCtx{rng: rng}).genAny(depth)
}
