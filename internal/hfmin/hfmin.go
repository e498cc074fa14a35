// Package hfmin implements exact hazard-free two-level logic
// minimization for multiple-input changes, after Nowick & Dill (the
// algorithm at the heart of the Minimalist synthesis package used by
// the paper).
//
// A Boolean function is specified by a set of input transitions. Each
// transition runs from a start minterm A to an end minterm B inside the
// transition cube T = supercube(A,B); under Burst-Mode (Mealy)
// semantics the function holds its start value on every point of T
// except B, where it takes its end value.
//
// A sum-of-products cover is hazard-free for the specified transitions
// iff:
//
//   - every static 1→1 transition cube is contained in a SINGLE product
//     (required cube);
//   - for every dynamic 1→0 transition, any product intersecting the
//     transition cube contains its start point (the transition cube is
//     "privileged"), and the maximal ON-subcubes anchored at the start
//     point are each contained in a single product;
//   - 0→1 transitions need only ordinary coverage of the end point: the
//     points they cross are OFF-set points no valid product touches.
//
// Products satisfying the intersection restrictions are dhf-implicants;
// maximal ones are dhf-prime implicants. Minimization selects a minimum
// set of dhf-primes covering all required cubes (unate covering).
package hfmin

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"balsabm/internal/logic"
)

// Transition is one specified input transition of a single-output
// function.
type Transition struct {
	Start []bool // minterm A
	End   []bool // minterm B
	From  bool   // function value at A (and on all of T except B)
	To    bool   // function value at B
}

// Cube returns the transition supercube T.
func (t Transition) Cube() logic.Cube {
	return logic.Point(t.Start).Supercube(logic.Point(t.End))
}

// Changed lists the variables that differ between Start and End.
func (t Transition) Changed() []int {
	var out []int
	for i := range t.Start {
		if t.Start[i] != t.End[i] {
			out = append(out, i)
		}
	}
	return out
}

// Problem is a single-output hazard-free minimization instance.
type Problem struct {
	Vars        int
	Names       []string // optional, for diagnostics
	Transitions []Transition
}

// privileged is a dynamic 1→0 transition cube with its start point.
type privileged struct {
	cube  logic.Cube
	start []bool
}

// sets computes the ON cubes, OFF cubes, required cubes and privileged
// cubes of the instance, checking specification consistency.
func (p *Problem) sets() (on, off, required logic.Cover, priv []privileged, err error) {
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

// ConflictError reports that two transitions specify contradictory
// values for some input combination (the state assignment must be
// refined).
type ConflictError struct {
	On, Off logic.Cube
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("hfmin: inconsistent specification: %s required 1, %s required 0 (overlap %s)",
		e.On, e.Off, e.On.Intersect(e.Off))
}

// EnumBudget bounds the nodes one dhfPrimes enumeration may visit
// before falling back to greedy expansion. The packed engine made
// nodes roughly an order of magnitude cheaper than the original
// []Lit implementation's 1500-node budget, so the exact path now
// covers the Table 3 controllers without truncating. Exported so
// bmlint's BM200 complexity report can compare a spec's estimated
// enumeration pressure against the minimizer's exact-path budget.
const EnumBudget = 20000

// bbBudget bounds the covering branch-and-bound; beyond it the
// incumbent (at worst the greedy solution) is kept and the result is
// flagged inexact.
const bbBudget = 1 << 20

// packedPriv is a privileged cube in packed form: the dynamic 1→0
// transition cube and its start minterm as a PointWords plane.
type packedPriv struct {
	cube  logic.PackedCube
	start []uint64
}

// problemMat is the packed OFF-set / privileged-cube matrix every
// dhf-implicant test scans, plus the mask enumeration's scratch state.
// A problemMat belongs to one Minimize call, which enumerates its seeds
// one after another on one goroutine, so the scratch is never shared.
type problemMat struct {
	sp   *logic.Space
	off  []logic.PackedCube
	priv []packedPriv
	enum maskScratch
}

// maskScratch is the per-seed state of dhfPrimesMask, reset for each
// seed so one Minimize allocates it once.
type maskScratch struct {
	offConf, privConf, privDist []uint64
	seen                        maskSet
	leaves                      []uint64
	// Scratch of maximalMasks.
	order []int32
	kept  []uint64
	keep  []bool
}

func newProblemMat(vars int, off logic.Cover, priv []privileged) *problemMat {
	sp := logic.NewSpace(vars)
	m := &problemMat{sp: sp, off: sp.PackCover(off)}
	m.priv = make([]packedPriv, len(priv))
	for i, pv := range priv {
		m.priv[i] = packedPriv{cube: sp.Pack(pv.cube), start: sp.PointWords(pv.start)}
	}
	m.enum.offConf = make([]uint64, len(off))
	m.enum.privConf = make([]uint64, len(priv))
	m.enum.privDist = make([]uint64, len(priv))
	return m
}

// isDHF reports whether c is a dhf-implicant: it touches no OFF point
// and has no illegal intersection with a privileged cube. Both scans
// are word-parallel over the packed matrix.
func (m *problemMat) isDHF(c logic.PackedCube) bool {
	if logic.AnyIntersectsPacked(m.off, c) {
		return false
	}
	for i := range m.priv {
		if c.Intersects(m.priv[i].cube) && !c.ContainsPointWords(m.priv[i].start) {
			return false
		}
	}
	return true
}

// dhfPrimes returns the maximal dhf-implicants containing seed, under
// a node budget; beyond the budget it falls back to greedy maximal
// expansions, which keeps the covering problem supplied with
// candidates at a small optimality cost. It reports the nodes visited
// and whether the enumeration completed without truncation.
//
// Because growth only ever frees literals of the seed, every reachable
// cube is identified by the subset of seed literals freed so far. When
// the seed has at most 64 specified variables (every real controller),
// the enumeration runs entirely on uint64 subset masks, branching on
// violated constraints so the tree size tracks the number of primes.
// Wider seeds take the defensive generic packed-cube path, a bottom-up
// subset walk whose exactness flag is conservative (it can truncate on
// instances the mask path finishes).
func (m *problemMat) dhfPrimes(seed logic.PackedCube) (out []logic.PackedCube, nodes int64, exact bool) {
	var spec []int
	for v := 0; v < m.sp.Vars(); v++ {
		if seed.Lit(v) != logic.DC {
			spec = append(spec, v)
		}
	}
	if len(spec) <= 64 {
		return m.dhfPrimesMask(seed, spec)
	}
	return m.dhfPrimesWide(seed)
}

// dhfPrimesMask is the subset-mask fast path of dhfPrimes. Bit i of a
// mask stands for spec[i], the i-th specified variable of the seed;
// a set bit means that literal has been freed. For each OFF cube o,
// conf(o) holds the seed literals conflicting with o: the grown cube
// intersects o exactly when all of them are freed (conf ⊆ S). For each
// privileged cube P, the same conf test detects intersection, and
// dist(P) (seed literals disagreeing with P's start point) detects
// start-point containment, so the dhf condition "intersecting P implies
// containing its start" is conf(P) ⊆ S ⇒ dist(P) ⊆ S.
//
// Rather than walking freed-literal subsets bottom-up (2^f nodes when
// the constraints are loose, however few primes exist), the search
// branches top-down on violated constraints, the classic
// prime-generation-via-complement recursion: a node is a set Ex of
// literals pinned to the seed value, its candidate is the complement
// U = full∖Ex with everything else freed, and when some constraint is
// violated at U each of its exclusion witnesses spawns one child. A
// maximal feasible S below a node with S ⊆ U and U infeasible must
// exclude a witness literal of any constraint violated at U (for an
// OFF conflict, conf ⊄ S since S is feasible; for a privileged pair,
// D ⊆ S would contradict D ⊄ U, hence P ⊄ S), so the branch set is
// complete and every dhf-prime surfaces as a leaf. Leaves are feasible
// by construction and filtered for maximality at the end (maximalMasks);
// the tree size tracks the number of primes, not the subset count.
func (m *problemMat) dhfPrimesMask(seed logic.PackedCube, spec []int) (out []logic.PackedCube, nodes int64, exact bool) {
	k := len(spec)
	sc := &m.enum
	offConf, privConf, privDist := sc.offConf, sc.privConf, sc.privDist
	for oi, o := range m.off {
		var conf uint64
		for i, v := range spec {
			ol := o.Lit(v)
			if ol != logic.DC && ol != seed.Lit(v) {
				conf |= 1 << uint(i)
			}
		}
		offConf[oi] = conf
	}
	clear(privConf)
	clear(privDist)
	for pi := range m.priv {
		for i, v := range spec {
			pl := m.priv[pi].cube.Lit(v)
			if pl != logic.DC && pl != seed.Lit(v) {
				privConf[pi] |= 1 << uint(i)
			}
			startOne := m.priv[pi].start[v>>6]>>uint(v&63)&1 != 0
			if (seed.Lit(v) == logic.One) != startOne {
				privDist[pi] |= 1 << uint(i)
			}
		}
	}
	feasible := func(s uint64) bool {
		for _, conf := range offConf {
			if conf&^s == 0 {
				return false
			}
		}
		for i := range privConf {
			if privConf[i]&^s == 0 && privDist[i]&^s != 0 {
				return false
			}
		}
		return true
	}

	full := ^uint64(0)
	if k < 64 {
		full = 1<<uint(k) - 1
	}
	leaves := sc.leaves[:0]
	seen := &sc.seen
	seen.reset()
	overflow := false
	var walk func(ex uint64)
	walk = func(ex uint64) {
		if overflow || !seen.add(ex) {
			return
		}
		if nodes++; nodes > EnumBudget {
			overflow = true
			return
		}
		// A constraint is violated at the candidate U = full∖ex when
		// its conflict set avoids ex entirely (conf ⊆ U) and, for a
		// privileged pair, a start-distance literal is pinned (D ⊄ U).
		// Branch on the first violation; an empty witness set (conf or
		// P already empty) prunes the node — no feasible set survives.
		for _, conf := range offConf {
			if conf&ex == 0 {
				for b := conf; b != 0; b &= b - 1 {
					walk(ex | b&-b)
				}
				return
			}
		}
		for i := range privConf {
			if privConf[i]&ex == 0 && privDist[i]&ex != 0 {
				for b := privConf[i]; b != 0; b &= b - 1 {
					walk(ex | b&-b)
				}
				return
			}
		}
		leaves = append(leaves, full&^ex)
	}
	walk(0)
	if overflow {
		// Greedy maximal expansions guarantee candidates even when the
		// exact enumeration is truncated.
		for _, dir := range []int{1, -1} {
			var s uint64
			for changed := true; changed; {
				changed = false
				for j := 0; j < k; j++ {
					i := j
					if dir < 0 {
						i = k - 1 - j
					}
					if s>>uint(i)&1 != 0 {
						continue
					}
					if feasible(s | 1<<uint(i)) {
						s |= 1 << uint(i)
						changed = true
					}
				}
			}
			dup := false
			for _, u := range leaves {
				if u == s {
					dup = true
					break
				}
			}
			if !dup {
				leaves = append(leaves, s)
			}
		}
	}
	sc.leaves = leaves
	// Distinct exclusion sets can close on nested candidates; keep only
	// the maximal masks (the true dhf-primes).
	for _, s := range sc.maximalMasks(leaves) {
		c := seed.Clone()
		for i := 0; i < k; i++ {
			if s>>uint(i)&1 != 0 {
				c.FreeLit(spec[i])
			}
		}
		out = append(out, c)
	}
	return out, nodes, !overflow
}

// maximalMasks keeps the masks no other mask strictly contains, in
// their original order, compacting masks in place. The masks must be
// distinct, so a strict superset has a larger popcount: visiting the
// masks from the largest popcount down (a counting sort), a mask is
// dropped iff an already-kept mask of larger popcount contains it — a
// dropped container lies inside a kept one. That is O(L·P) for L masks
// and P maximal ones, instead of the all-pairs O(L²).
func (sc *maskScratch) maximalMasks(masks []uint64) []uint64 {
	// Bucket b holds popcount 64-b, so ascending buckets run from the
	// largest popcount down; start[b] is where bucket b begins.
	var start [66]int32
	for _, s := range masks {
		start[64-bits.OnesCount64(s)+1]++
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	if cap(sc.order) < len(masks) {
		sc.order = make([]int32, len(masks))
		sc.keep = make([]bool, len(masks))
	}
	order, keep := sc.order[:len(masks)], sc.keep[:len(masks)]
	for i, s := range masks {
		b := 64 - bits.OnesCount64(s)
		order[start[b]] = int32(i)
		start[b]++
	}
	kept := sc.kept[:0]
	larger, prevPop := 0, -1
	for _, i := range order {
		s := masks[i]
		if pop := bits.OnesCount64(s); pop != prevPop {
			larger, prevPop = len(kept), pop
		}
		keep[i] = true
		for _, t := range kept[:larger] {
			if s&^t == 0 {
				keep[i] = false
				break
			}
		}
		if keep[i] {
			kept = append(kept, s)
		}
	}
	sc.kept = kept
	out := masks[:0]
	for i, s := range masks {
		if keep[i] {
			out = append(out, s)
		}
	}
	return out
}

// maskSet is a set of uint64 masks: open addressing with linear
// probing over a power-of-two table of keys, where 0 marks an empty
// slot and key 0 itself is a flag. reset empties it but keeps the
// table.
type maskSet struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots))
	n       int  // nonzero keys stored
	hasZero bool
}

// reset empties the set.
func (s *maskSet) reset() {
	if s.n > 0 {
		clear(s.slots)
	}
	s.n, s.hasZero = 0, false
}

// add inserts k and reports whether it was absent.
func (s *maskSet) add(k uint64) bool {
	if k == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			return true
		}
	}
}

// slot is k's home slot: Fibonacci hashing, taking the product's top
// bits, so masks differing only in high bits still spread.
func (s *maskSet) slot(k uint64) uint64 {
	return k * 0x9e3779b97f4a7c15 >> s.shift
}

// grow doubles the table (to 64 slots at first) and reinserts the keys.
func (s *maskSet) grow() {
	old := s.slots
	size := max(64, 2*len(old))
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
}

// dhfPrimesWide is the generic path for seeds with more than 64
// specified variables: the same walk on packed cubes directly.
func (m *problemMat) dhfPrimesWide(seed logic.PackedCube) (out []logic.PackedCube, nodes int64, exact bool) {
	n := m.sp.Vars()
	seen := logic.NewKeySet(m.sp)
	outSet := logic.NewKeySet(m.sp)
	record := func(c logic.PackedCube) {
		if outSet.Add(c) {
			out = append(out, c.Clone())
		}
	}
	overflow := false
	var grow func(c logic.PackedCube, minVar int)
	grow = func(c logic.PackedCube, minVar int) {
		if overflow {
			return
		}
		if nodes++; nodes > EnumBudget {
			overflow = true
			return
		}
		if !seen.Add(c) {
			return
		}
		maximal := true
		for v := 0; v < n; v++ {
			lit := c.Lit(v)
			if lit == logic.DC {
				continue
			}
			c.FreeLit(v)
			if m.isDHF(c) {
				maximal = false
				if v >= minVar {
					grow(c, v+1)
				}
			}
			c.SetLit(v, lit)
		}
		if maximal {
			record(c)
		}
	}
	grow(seed.Clone(), 0)
	// Greedy maximal expansions guarantee candidates even when the
	// exact enumeration is truncated (and cover corner cases where the
	// canonical order dead-ends before a maximal cube: dhf-ness is not
	// monotone along the ascending-order path, because growing a cube
	// can acquire a privileged start point its sub-cubes lack).
	for _, dir := range []int{1, -1} {
		c := seed.Clone()
		for changed := true; changed; {
			changed = false
			for k := 0; k < n; k++ {
				v := k
				if dir < 0 {
					v = n - 1 - k
				}
				lit := c.Lit(v)
				if lit == logic.DC {
					continue
				}
				c.FreeLit(v)
				if m.isDHF(c) {
					changed = true
				} else {
					c.SetLit(v, lit)
				}
			}
		}
		record(c)
	}
	return out, nodes, !overflow
}

// Result is a minimized hazard-free cover, with the work counters
// that make a fallback to the greedy paths observable.
type Result struct {
	Cover    logic.Cover
	Primes   int // number of dhf-prime candidates considered
	Required int // number of required cubes
	// Exact reports that every prime enumeration completed within its
	// node budget AND the covering step proved minimality — i.e. the
	// cover is a true minimum-product hazard-free solution, not a
	// greedy approximation.
	Exact bool
	// EnumNodes counts expansion nodes visited across all prime
	// enumerations; BranchNodes counts covering branch-and-bound
	// nodes.
	EnumNodes   int64
	BranchNodes int64
}

// Minimize solves the instance, returning a minimum-product hazard-free
// cover. The candidate enumeration and the covering branch-and-bound
// each run under a node budget; within budget the result is exact
// (Result.Exact), beyond it the greedy fallbacks keep the cover valid
// at a small optimality cost.
func (p *Problem) Minimize() (*Result, error) {
	on, off, required, priv, err := p.sets()
	if err != nil {
		return nil, err
	}
	if len(required) == 0 {
		return &Result{Cover: nil, Exact: true}, nil // constant-0 function
	}
	mat := newProblemMat(p.Vars, off, priv)
	// Generate candidate dhf-primes from each required cube.
	var primes []logic.PackedCube
	primeSet := logic.NewKeySet(mat.sp)
	res := &Result{Required: len(required), Exact: true}
	packedReq := make([]logic.PackedCube, len(required))
	for i, r := range required {
		packedReq[i] = mat.sp.Pack(r)
		if !mat.isDHF(packedReq[i]) {
			return nil, fmt.Errorf("hfmin: required cube %s is not a dhf-implicant; specification is not hazard-free realizable", r)
		}
		cand, nodes, exact := mat.dhfPrimes(packedReq[i])
		res.EnumNodes += nodes
		if !exact {
			res.Exact = false
		}
		for _, pr := range cand {
			if primeSet.Add(pr) {
				primes = append(primes, pr)
			}
		}
	}
	// Containment pruning: a candidate strictly contained in another
	// covers a subset of the required cubes the larger one covers (and
	// both are dhf-implicants), so dropping it shrinks the covering
	// matrix without losing any minimum solution.
	primes = pruneContained(primes)
	res.Primes = len(primes)
	// Build the unate covering matrix.
	covers := make([][]int, len(required)) // row -> candidate column indices
	for i := range packedReq {
		for j := range primes {
			if primes[j].Contains(packedReq[i]) {
				covers[i] = append(covers[i], j)
			}
		}
		if len(covers[i]) == 0 {
			return nil, fmt.Errorf("hfmin: required cube %s has no covering dhf-prime", required[i])
		}
	}
	chosen, bbNodes, coverExact := solveCover(covers, len(primes))
	res.BranchNodes = bbNodes
	if !coverExact {
		res.Exact = false
	}
	var cover logic.Cover
	for _, j := range chosen {
		cover = append(cover, mat.sp.Unpack(primes[j]))
	}
	sortCover(cover)
	// Post-verify: the cover must contain the whole ON-set and be
	// hazard-free. Deliberately run on the unpacked reference engine
	// (defense in depth: a packed-engine bug cannot certify its own
	// output; cheap at these sizes).
	for _, o := range on {
		if !cover.ContainsCube(o) {
			return nil, fmt.Errorf("hfmin: internal error: ON cube %s not covered", o)
		}
	}
	if err := CheckCover(cover, p.Transitions); err != nil {
		return nil, fmt.Errorf("hfmin: internal error: %w", err)
	}
	res.Cover = cover
	return res, nil
}

// pruneContained drops candidates strictly contained in another
// candidate, preserving first-seen order (duplicates were already
// removed by the caller's key set).
func pruneContained(primes []logic.PackedCube) []logic.PackedCube {
	out := primes[:0]
	for i := range primes {
		maximal := true
		for j := range primes {
			if i != j && primes[j].Contains(primes[i]) && !primes[i].Contains(primes[j]) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, primes[i])
		}
	}
	return out
}

// solveCover finds a minimum set of columns covering all rows:
// essential-column extraction and row/column dominance reduce the
// matrix to its cyclic core, a greedy pass seeds the incumbent, and
// branch-and-bound with a maximal-independent-row-set lower bound
// proves minimality. Everything is index-ordered and sequential, so
// the selection is deterministic. It reports the branch-and-bound
// node count and whether minimality was proven within bbBudget.
func solveCover(rows [][]int, nCols int) (cols []int, nodes int64, exact bool) {
	selected := map[int]bool{}
	// Active candidate lists, pruned in place by the reductions.
	cands := make([][]int, len(rows))
	for i, r := range rows {
		cands[i] = append([]int(nil), r...)
	}
	active := make([]int, 0, len(rows))
	for i := range cands {
		active = append(active, i)
	}
	colRemoved := make([]bool, nCols)

	dropCoveredRows := func() {
		out := active[:0]
		for _, i := range active {
			done := false
			for _, j := range cands[i] {
				if selected[j] {
					done = true
					break
				}
			}
			if !done {
				out = append(out, i)
			}
		}
		active = out
	}
	// subset reports a ⊆ b for ascending-sorted int slices.
	subset := func(a, b []int) bool {
		k := 0
		for _, x := range a {
			for k < len(b) && b[k] < x {
				k++
			}
			if k == len(b) || b[k] != x {
				return false
			}
		}
		return true
	}

	// Reduction fixpoint: essentials, row dominance, column dominance.
	for {
		changed := false
		// Essential columns: rows with a single live candidate.
		for _, i := range active {
			if len(cands[i]) == 1 && !selected[cands[i][0]] {
				selected[cands[i][0]] = true
				changed = true
			}
		}
		if changed {
			dropCoveredRows()
		}
		if len(active) == 0 {
			break
		}
		// Row dominance: a row whose candidate set contains another
		// row's is satisfied whenever the tighter row is — drop it.
		// On identical sets the higher index is dropped.
		dominated := map[int]bool{}
		for ai, i := range active {
			for bi, j := range active {
				if ai == bi || dominated[i] || dominated[j] {
					continue
				}
				if subset(cands[j], cands[i]) && (len(cands[j]) < len(cands[i]) || j < i) {
					dominated[i] = true
				}
			}
		}
		if len(dominated) > 0 {
			out := active[:0]
			for _, i := range active {
				if !dominated[i] {
					out = append(out, i)
				}
			}
			active = out
			changed = true
		}
		// Column dominance: a column covering a subset of another's
		// live rows can be replaced by the dominating column in any
		// solution — remove it. On identical row sets the lower index
		// is kept.
		colRows := map[int][]int{}
		for _, i := range active {
			for _, j := range cands[i] {
				colRows[j] = append(colRows[j], i)
			}
		}
		liveCols := make([]int, 0, len(colRows))
		for j := range colRows {
			liveCols = append(liveCols, j)
		}
		sort.Ints(liveCols)
		for _, j := range liveCols {
			if colRemoved[j] {
				continue
			}
			for _, k := range liveCols {
				if j == k || colRemoved[k] {
					continue
				}
				if subset(colRows[j], colRows[k]) && (len(colRows[j]) < len(colRows[k]) || k < j) {
					colRemoved[j] = true
					changed = true
					break
				}
			}
		}
		if changed {
			for _, i := range active {
				out := cands[i][:0]
				for _, j := range cands[i] {
					if !colRemoved[j] {
						out = append(out, j)
					}
				}
				cands[i] = out
			}
		}
		if !changed {
			break
		}
	}

	exact = true
	if len(active) > 0 {
		// Greedy incumbent: repeatedly take the column covering the
		// most uncovered rows (ties to the lower index). Guarantees a
		// solution even if the branch-and-bound budget runs out.
		greedy := make([]bool, nCols)
		count := make([]int, nCols)
		var best []int
		rest := append([]int(nil), active...)
		for len(rest) > 0 {
			for i := range count {
				count[i] = 0
			}
			for _, i := range rest {
				for _, j := range cands[i] {
					count[j]++
				}
			}
			bestJ, bestC := -1, -1
			for j, c := range count {
				if c > bestC {
					bestJ, bestC = j, c
				}
			}
			greedy[bestJ] = true
			best = append(best, bestJ)
			out := rest[:0]
			for _, i := range rest {
				done := false
				for _, j := range cands[i] {
					if greedy[j] {
						done = true
						break
					}
				}
				if !done {
					out = append(out, i)
				}
			}
			rest = out
		}
		sort.Ints(best)

		// Lower bound: a set of pairwise column-disjoint rows needs
		// one distinct column each (a maximal independent row set,
		// built greedily in row order).
		lbUsed := make([]bool, nCols)
		independentLB := func(remaining []int) int {
			for i := range lbUsed {
				lbUsed[i] = false
			}
			lb := 0
			for _, i := range remaining {
				disjoint := true
				for _, j := range cands[i] {
					if lbUsed[j] {
						disjoint = false
						break
					}
				}
				if disjoint {
					lb++
					for _, j := range cands[i] {
						lbUsed[j] = true
					}
				}
			}
			return lb
		}

		overflow := false
		var cur []int
		// Depth-indexed scratch rows: the recursion reuses one buffer
		// per depth instead of allocating a remaining-set per node.
		arena := make([][]int, len(active)+1)
		var rec func(remaining []int, depth int)
		rec = func(remaining []int, depth int) {
			if overflow {
				return
			}
			if nodes++; nodes > bbBudget {
				overflow = true
				return
			}
			if len(remaining) == 0 {
				if len(cur) < len(best) {
					best = append(best[:0], cur...)
				}
				return
			}
			if len(cur)+independentLB(remaining) >= len(best) {
				return
			}
			// Branch on the row with fewest candidates (ties to the
			// lower row index).
			bi := remaining[0]
			for _, i := range remaining {
				if len(cands[i]) < len(cands[bi]) {
					bi = i
				}
			}
			if arena[depth] == nil {
				arena[depth] = make([]int, 0, len(remaining))
			}
			for _, j := range cands[bi] {
				cur = append(cur, j)
				next := arena[depth][:0]
				for _, i := range remaining {
					covered := false
					for _, k := range cands[i] {
						if k == j {
							covered = true
							break
						}
					}
					if !covered {
						next = append(next, i)
					}
				}
				arena[depth] = next
				rec(next, depth+1)
				cur = cur[:len(cur)-1]
			}
		}
		rec(active, 0)
		exact = !overflow
		sort.Ints(best)
		for _, j := range best {
			selected[j] = true
		}
	}
	cols = make([]int, 0, len(selected))
	for j := range selected {
		cols = append(cols, j)
	}
	sort.Ints(cols)
	return cols, nodes, exact
}

// CheckCover verifies that a cover implements the specified transitions
// without logic hazards: correct values, single-cube containment of
// static-1 and 1→0 required cubes, and no illegal intersections of
// privileged cubes. It is used both as a post-check of minimization and
// to audit technology-mapped logic (Section 5 of the paper).
func CheckCover(cover logic.Cover, transitions []Transition) error {
	for i, t := range transitions {
		T := t.Cube()
		switch {
		case t.From && t.To:
			contained := false
			for _, c := range cover {
				if c.Contains(T) {
					contained = true
					break
				}
			}
			if !contained {
				return fmt.Errorf("static 1→1 transition %d (%s) not held by a single product", i, T)
			}
		case !t.From && !t.To:
			if cover.AnyIntersects(T) {
				return fmt.Errorf("static 0→0 transition %d (%s) intersected by a product", i, T)
			}
		case t.From && !t.To:
			for _, c := range cover {
				if c.Intersects(T) && !c.ContainsPoint(t.Start) {
					return fmt.Errorf("1→0 transition %d: product %s intersects %s without its start point", i, c, T)
				}
			}
			for _, v := range t.Changed() {
				sub := T.Clone()
				if t.Start[v] {
					sub[v] = logic.One
				} else {
					sub[v] = logic.Zero
				}
				contained := false
				for _, c := range cover {
					if c.Contains(sub) {
						contained = true
						break
					}
				}
				if !contained {
					return fmt.Errorf("1→0 transition %d: required cube %s not held by a single product", i, sub)
				}
			}
			if cover.Eval(t.End) {
				return fmt.Errorf("1→0 transition %d: cover still 1 at end point", i)
			}
		default: // 0→1
			if !cover.Eval(t.End) {
				return fmt.Errorf("0→1 transition %d: cover 0 at end point", i)
			}
			for _, v := range t.Changed() {
				sub := T.Clone()
				if t.Start[v] {
					sub[v] = logic.One
				} else {
					sub[v] = logic.Zero
				}
				for _, c := range cover {
					if c.Intersects(sub) {
						return fmt.Errorf("0→1 transition %d: product %s on during OFF phase %s", i, c, sub)
					}
				}
			}
		}
	}
	return nil
}

func sortCover(cv logic.Cover) {
	sort.Slice(cv, func(i, j int) bool { return cv[i].String() < cv[j].String() })
}

// FormatPLA renders the cover in a small PLA-like format for the .sol
// report files.
func FormatPLA(name string, inputs []string, cover logic.Cover) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".ob %s\n", name)
	fmt.Fprintf(&sb, ".i %d\n", len(inputs))
	fmt.Fprintf(&sb, ".ilb %s\n", strings.Join(inputs, " "))
	fmt.Fprintf(&sb, ".p %d\n", len(cover))
	for _, c := range cover {
		fmt.Fprintf(&sb, "%s 1\n", c)
	}
	sb.WriteString(".e\n")
	return sb.String()
}
