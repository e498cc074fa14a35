package minimalist

import (
	"fmt"
	"sort"

	"balsabm/internal/bm"
)

// MinimizeStates merges behaviorally identical states of a Burst-Mode
// specification — the state-minimization step of the Minimalist flow.
//
// The merge criterion is bisimilarity refined from entry signal values:
// two states collapse only if they are entered with identical signal
// vectors and have identical arc structure into equivalent classes, so
// the minimized machine is observationally indistinguishable from the
// original and still satisfies the Burst-Mode well-formedness checks
// (including unique entry values). Specifications produced by the
// CH-to-BMS compiler are usually already minimal; redundancy arises
// from hand-written specs and from compositions that duplicate
// identical tails.
func MinimizeStates(sp *bm.Spec) (*bm.Spec, error) {
	values, err := sp.StateValues()
	if err != nil {
		return nil, err
	}
	// Initial partition: by entry signal values.
	sigs := sp.Signals()
	block := make([]int, sp.NStates)
	index := map[string]int{}
	for s := 0; s < sp.NStates; s++ {
		key := ""
		for _, sig := range sigs {
			if values.Get(s, sig) {
				key += "1"
			} else {
				key += "0"
			}
		}
		b, ok := index[key]
		if !ok {
			b = len(index)
			index[key] = b
		}
		block[s] = b
	}
	// Refine: states stay together only if their outgoing arc
	// signatures (bursts + successor block) match.
	for {
		sigIndex := map[string]int{}
		next := make([]int, sp.NStates)
		for s := 0; s < sp.NStates; s++ {
			arcs := sp.ArcsFrom(s)
			parts := make([]string, 0, len(arcs))
			for _, a := range arcs {
				parts = append(parts, fmt.Sprintf("%s/%s>%d", a.In, a.Out, block[a.To]))
			}
			sort.Strings(parts)
			key := fmt.Sprintf("b%d|%v", block[s], parts)
			b, ok := sigIndex[key]
			if !ok {
				b = len(sigIndex)
				sigIndex[key] = b
			}
			next[s] = b
		}
		same := true
		for s := range next {
			if next[s] != block[s] {
				same = false
			}
		}
		block = next
		if same || len(sigIndex) == sp.NStates {
			break
		}
	}
	// Rebuild the spec over blocks, numbering blocks by first
	// appearance in state order (keeps the start at 0 after renumber).
	renum := map[int]int{}
	order := []int{sp.Start}
	renum[block[sp.Start]] = 0
	for s := 0; s < sp.NStates; s++ {
		if _, ok := renum[block[s]]; !ok {
			renum[block[s]] = len(order)
			order = append(order, s)
		}
	}
	out := &bm.Spec{
		Name:    sp.Name,
		Inputs:  append([]string(nil), sp.Inputs...),
		Outputs: append([]string(nil), sp.Outputs...),
		Start:   0,
		NStates: len(order),
	}
	seen := map[string]bool{}
	for _, a := range sp.Arcs {
		na := bm.Arc{From: renum[block[a.From]], To: renum[block[a.To]], In: a.In.Clone(), Out: a.Out.Clone()}
		key := fmt.Sprintf("%d>%d:%s/%s", na.From, na.To, na.In, na.Out)
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Arcs = append(out.Arcs, na)
	}
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("minimalist: state minimization broke the spec: %w", err)
	}
	return out, nil
}
