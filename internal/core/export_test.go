package core

// Verdicts gives the external tests a clustering call's legality memo,
// so they can share one across calls and read its compile count.
type Verdicts struct{ v *verdicts }

func NewVerdicts() Verdicts { return Verdicts{newVerdicts()} }

// Compiles reports how many candidate merges the memo compiled.
func (m Verdicts) Compiles() int64 { return m.v.compiles.Load() }

// T2 is T2ClusteringOpt with the memo m.
func (m Verdicts) T2(n *Netlist, opt Options) (*Netlist, *Report, error) {
	return t2Cluster(n, opt, m.v)
}

// T2Round runs one T2 round with the memo m, keeping the calls in
// noSplit intact, and returns the calls it restored.
func (m Verdicts) T2Round(n *Netlist, noSplit map[string]bool, opt Options) ([]string, error) {
	opt.Pool = opt.pool()
	_, _, restored, err := t2Round(n, noSplit, opt, m.v)
	return restored, err
}
