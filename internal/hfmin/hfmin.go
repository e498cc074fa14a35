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
	"slices"
	"sort"
	"strings"
	"sync"

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

// packedPriv is a privileged cube in packed form: the dynamic 1→0
// transition cube and its start minterm as a PointWords plane.
type packedPriv struct {
	cube  logic.PackedCube
	start []uint64
}

// workspace is the scratch of one Minimize call: the packed front end,
// the prime enumeration's state and the primes found. Minimize takes a
// workspace from workspacePool and puts it back on return; in between
// it belongs to that call and its goroutine alone. Each call reslices
// every buffer from the start, so one workspace serves problems of any
// width, and once its buffers have grown a call allocates none of
// them. Nothing a call returns points into the workspace, and the pool
// may drop it at any collection: reuse saves allocations and changes
// no result.
type workspace struct {
	sp *logic.Space
	// arena backs the front end: each transition's start and end
	// planes, then the ON, OFF and privileged cubes built from them.
	arena []uint64
	on    []logic.PackedCube // ON cubes, which are also the required cubes before dedup
	req   []logic.PackedCube // required cubes: ON without duplicates and contained cubes
	off   []logic.PackedCube
	priv  []packedPriv
	enum  maskScratch
	// primeArena backs primes, the distinct dhf-primes found so far;
	// cube holds a candidate until the dedup has seen it.
	primeArena []uint64
	primes     []logic.PackedCube
	cube       []uint64
}

var workspacePool = sync.Pool{New: func() any { return new(workspace) }}

// sized returns buf resliced to n elements, reallocated when its
// capacity is short. The contents are not preserved.
func sized[S ~[]E, E any](buf S, n int) S {
	if cap(buf) < n {
		return make(S, n)
	}
	return buf[:n]
}

// load builds p's ON, OFF, required and privileged cubes into the
// arena, packed straight from each transition's start and end planes.
// Per transition: a static 1 adds its transition cube T to ON and a
// static 0 adds T to OFF. A dynamic 1→0 adds to ON, for each changed
// variable in ascending order, T with that variable held at its start
// value; it adds its end point to OFF and T with its start point to
// the privileged cubes. A dynamic 0→1 adds the same sub-cubes to OFF
// and its end point to ON. The required cubes are the ON cubes less
// duplicates and strictly contained cubes (logic.Cover.Dedup). The
// specification must be consistent: no ON cube may meet an OFF cube.
// TestFrontEndMatchesSets pins the cubes, their order and the error
// texts to the []Lit reference setsRef.
func (ws *workspace) load(p *Problem) error {
	n := p.Vars
	if ws.sp == nil || ws.sp.Vars() != n {
		ws.sp = logic.NewSpace(n)
	}
	w := ws.sp.Words()
	// Pass 1, in transition order: the arity and value-change checks,
	// each transition's planes, and the cube count that sizes the
	// arena.
	planes := 2 * w * len(p.Transitions)
	ws.arena = sized(ws.arena, planes)
	clear(ws.arena)
	cubes := 0
	for i, t := range p.Transitions {
		if len(t.Start) != n || len(t.End) != n {
			return fmt.Errorf("hfmin: transition %d has wrong arity", i)
		}
		s, e := ws.arena[2*i*w:(2*i+1)*w], ws.arena[(2*i+1)*w:(2*i+2)*w]
		packPlane(s, t.Start)
		packPlane(e, t.End)
		changed := 0
		for j := range s {
			changed += bits.OnesCount64(s[j] ^ e[j])
		}
		switch {
		case changed == 0 && t.From != t.To:
			return fmt.Errorf("hfmin: transition %d changes value without input change", i)
		case t.From == t.To:
			cubes++ // T
		default:
			cubes += changed + 2 // T, its sub-cubes and its end point
		}
	}
	ws.arena = slices.Grow(ws.arena, 2*w*cubes)[:planes+2*w*cubes]
	next := planes
	cube := func() logic.PackedCube {
		c := logic.PackedCube{Ones: ws.arena[next : next+w : next+w], Zeros: ws.arena[next+w : next+2*w : next+2*w]}
		next += 2 * w
		return c
	}
	// last masks the final plane word to the space's variables.
	last := ^uint64(0)
	if n&63 != 0 {
		last = 1<<uint(n&63) - 1
	}
	// subCubes appends T with each changed variable held at its start
	// value, in ascending variable order.
	subCubes := func(dst []logic.PackedCube, T logic.PackedCube, s, e []uint64) []logic.PackedCube {
		for j := range s {
			for b := s[j] ^ e[j]; b != 0; b &= b - 1 {
				sub := cube()
				sub.CopyFrom(T)
				if bit := b & -b; s[j]&bit != 0 {
					sub.Ones[j] |= bit
				} else {
					sub.Zeros[j] |= bit
				}
				dst = append(dst, sub)
			}
		}
		return dst
	}
	point := func(e []uint64) logic.PackedCube {
		c := cube()
		for j := range e {
			c.Ones[j], c.Zeros[j] = e[j], ^e[j]
		}
		if w > 0 {
			c.Zeros[w-1] &= last
		}
		return c
	}
	ws.on, ws.off, ws.priv = ws.on[:0], ws.off[:0], ws.priv[:0]
	for i, t := range p.Transitions {
		s, e := ws.arena[2*i*w:(2*i+1)*w], ws.arena[(2*i+1)*w:(2*i+2)*w]
		T := cube()
		for j := range s {
			T.Ones[j], T.Zeros[j] = s[j]&e[j], ^(s[j] | e[j])
		}
		if w > 0 {
			T.Zeros[w-1] &= last
		}
		switch {
		case t.From && t.To: // static 1
			ws.on = append(ws.on, T)
		case !t.From && !t.To: // static 0
			ws.off = append(ws.off, T)
		case t.From: // dynamic 1→0
			ws.on = subCubes(ws.on, T, s, e)
			ws.off = append(ws.off, point(e))
			ws.priv = append(ws.priv, packedPriv{cube: T, start: s})
		default: // dynamic 0→1
			ws.off = subCubes(ws.off, T, s, e)
			ws.on = append(ws.on, point(e))
		}
	}
	// Consistency: the specified ON and OFF sets must be disjoint.
	for _, o := range ws.on {
		for _, f := range ws.off {
			if o.Intersects(f) {
				return &ConflictError{On: ws.sp.Unpack(o), Off: ws.sp.Unpack(f)}
			}
		}
	}
	// Dedup: drop a cube another strictly contains, and every copy of
	// a cube but the first.
	ws.req = ws.req[:0]
	for i, c := range ws.on {
		keep := true
		for j, d := range ws.on {
			if i != j && d.Contains(c) && (j < i || !c.Contains(d)) {
				keep = false
				break
			}
		}
		if keep {
			ws.req = append(ws.req, c)
		}
	}
	return nil
}

// packPlane writes a minterm's values into a zeroed bit plane.
func packPlane(dst []uint64, point []bool) {
	for v, b := range point {
		if b {
			dst[v>>6] |= 1 << uint(v&63)
		}
	}
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

// maskScratch is the per-seed state of dhfPrimesMask, reset for each
// seed.
type maskScratch struct {
	spec                        []int   // the seed's specified variables
	index                       []uint8 // variable → its bit in a mask
	offConf, privConf, privDist []uint64
	seen                        maskSet
	leaves                      []uint64
	// Scratch of maximalMasks.
	order []int32
	kept  []uint64
	keep  []bool
}

// isDHF reports whether c is a dhf-implicant: it touches no OFF point
// and has no illegal intersection with a privileged cube. Both scans
// are word-parallel over the packed matrix.
func (ws *workspace) isDHF(c logic.PackedCube) bool {
	if logic.AnyIntersectsPacked(ws.off, c) {
		return false
	}
	for i := range ws.priv {
		if c.Intersects(ws.priv[i].cube) && !c.ContainsPointWords(ws.priv[i].start) {
			return false
		}
	}
	return true
}

// dhfPrimes appends to ws.primes the maximal dhf-implicants containing
// seed that seen has not held yet (all of them when seen is nil),
// under a node budget; beyond the budget it falls back to greedy
// maximal expansions, which keeps the covering problem supplied with
// candidates at a small optimality cost. It reports the nodes visited
// and whether the enumeration completed without truncation.
//
// Because growth only ever frees literals of the seed, every reachable
// cube is identified by the subset of seed literals freed so far. When
// the seed has at most 64 specified variables (every real controller),
// the enumeration runs entirely on uint64 subset masks, branching on
// violated constraints so the tree size tracks the number of primes;
// each maximal mask is expanded into a scratch cube and copied into
// the prime arena only when it is new. Wider seeds take the defensive
// generic packed-cube path, a bottom-up subset walk whose exactness
// flag is conservative (it can truncate on instances the mask path
// finishes).
func (ws *workspace) dhfPrimes(seed logic.PackedCube, seen *logic.KeySet) (nodes int64, exact bool) {
	spec := ws.enum.spec[:0]
	for j := range seed.Ones {
		for b := seed.Ones[j] | seed.Zeros[j]; b != 0; b &= b - 1 {
			spec = append(spec, j<<6|bits.TrailingZeros64(b))
		}
	}
	ws.enum.spec = spec
	if len(spec) > 64 {
		wide, nodes, exact := ws.dhfPrimesWide(seed)
		for _, c := range wide {
			if seen == nil || seen.Add(c) {
				ws.primes = append(ws.primes, c)
			}
		}
		return nodes, exact
	}
	masks, nodes, exact := ws.dhfPrimesMask(seed, spec)
	w := len(seed.Ones)
	ws.cube = sized(ws.cube, 2*w)
	c := logic.PackedCube{Ones: ws.cube[:w], Zeros: ws.cube[w:]}
	for _, s := range masks {
		c.CopyFrom(seed)
		for b := s; b != 0; b &= b - 1 {
			c.FreeLit(spec[bits.TrailingZeros64(b)])
		}
		if seen == nil || seen.Add(c) {
			at := len(ws.primeArena)
			ws.primeArena = append(append(ws.primeArena, c.Ones...), c.Zeros...)
			a := ws.primeArena
			ws.primes = append(ws.primes, logic.PackedCube{Ones: a[at : at+w : at+w], Zeros: a[at+w : at+2*w : at+2*w]})
		}
	}
	return nodes, exact
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
//
// The conf and dist masks come from plane words: a conflicting or
// distant literal is a set bit of a word-parallel expression, mapped
// to its mask bit through the variable → spec index table. An OFF
// conf that contains an earlier kept one is dropped: whenever it
// avoids Ex the earlier one does too, so it is never the first
// violated constraint, and feasible rejects exactly the same sets.
// The walk therefore visits the same nodes in the same order and
// branches the same way with the shorter list.
//
// It returns the maximal masks in discovery order; they live in the
// scratch until the next call.
func (ws *workspace) dhfPrimesMask(seed logic.PackedCube, spec []int) (masks []uint64, nodes int64, exact bool) {
	k := len(spec)
	sc := &ws.enum
	index := sized(sc.index, ws.sp.Vars())
	for i, v := range spec {
		index[v] = uint8(i)
	}
	sc.index = index
	offConf := sc.offConf[:0]
offs:
	for _, o := range ws.off {
		var conf uint64
		for j := range seed.Ones {
			for b := o.Ones[j]&seed.Zeros[j] | o.Zeros[j]&seed.Ones[j]; b != 0; b &= b - 1 {
				conf |= 1 << index[j<<6|bits.TrailingZeros64(b)]
			}
		}
		for _, kept := range offConf {
			if kept&^conf == 0 {
				continue offs
			}
		}
		offConf = append(offConf, conf)
	}
	sc.offConf = offConf
	privConf, privDist := sized(sc.privConf, len(ws.priv)), sized(sc.privDist, len(ws.priv))
	sc.privConf, sc.privDist = privConf, privDist
	for pi, pv := range ws.priv {
		var conf, dist uint64
		for j := range seed.Ones {
			for b := pv.cube.Ones[j]&seed.Zeros[j] | pv.cube.Zeros[j]&seed.Ones[j]; b != 0; b &= b - 1 {
				conf |= 1 << index[j<<6|bits.TrailingZeros64(b)]
			}
			for b := seed.Ones[j]&^pv.start[j] | seed.Zeros[j]&pv.start[j]; b != 0; b &= b - 1 {
				dist |= 1 << index[j<<6|bits.TrailingZeros64(b)]
			}
		}
		privConf[pi], privDist[pi] = conf, dist
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
	return sc.maximalMasks(leaves), nodes, !overflow
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
// table; restart also returns it to minSlots slots. The table is a
// prefix of a buffer that only grows, and the slots past the prefix
// are always zero, so growing reslices the buffer while it has room.
type maskSet struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots))
	n       int  // nonzero keys stored
	hasZero bool
	moved   []uint64 // grow's copy of the keys it reinserts
}

// minSlots is the table size a restarted set begins with.
const minSlots = 64

// reset empties the set.
func (s *maskSet) reset() {
	if s.n > 0 {
		clear(s.slots)
	}
	s.n, s.hasZero = 0, false
}

// restart empties the set and shrinks its table to minSlots slots,
// keeping the buffer for regrowth.
func (s *maskSet) restart() {
	s.reset()
	if len(s.slots) > minSlots {
		s.slots = s.slots[:minSlots]
		s.shift = uint(64 - bits.TrailingZeros(minSlots))
	}
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

// grow doubles the table (to minSlots at first) and reinserts the
// keys, reslicing the buffer when it has room.
func (s *maskSet) grow() {
	size := max(minSlots, 2*len(s.slots))
	s.moved = s.moved[:0]
	for _, k := range s.slots {
		if k != 0 {
			s.moved = append(s.moved, k)
		}
	}
	if cap(s.slots) >= size {
		clear(s.slots)
		s.slots = s.slots[:size]
	} else {
		s.slots = make([]uint64, size)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, k := range s.moved {
		s.add(k)
	}
}

// dhfPrimesWide is the generic path for seeds with more than 64
// specified variables: the same walk on packed cubes directly.
func (ws *workspace) dhfPrimesWide(seed logic.PackedCube) (out []logic.PackedCube, nodes int64, exact bool) {
	n := ws.sp.Vars()
	seen := logic.NewKeySet(ws.sp)
	outSet := logic.NewKeySet(ws.sp)
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
			if ws.isDHF(c) {
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
				if ws.isDHF(c) {
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
// at a small optimality cost. Each call borrows a pooled workspace for
// its scratch, so concurrent calls, on one Problem or many, are safe.
func (p *Problem) Minimize() (*Result, error) {
	ws := workspacePool.Get().(*workspace)
	defer workspacePool.Put(ws)
	if err := ws.load(p); err != nil {
		return nil, err
	}
	if len(ws.req) == 0 {
		return &Result{Cover: nil, Exact: true}, nil // constant-0 function
	}
	sp := ws.sp
	// Generate candidate dhf-primes from each required cube.
	ws.enum.seen.restart()
	ws.primeArena, ws.primes = ws.primeArena[:0], ws.primes[:0]
	primeSet := logic.NewKeySet(sp)
	res := &Result{Required: len(ws.req), Exact: true}
	for _, r := range ws.req {
		if !ws.isDHF(r) {
			return nil, fmt.Errorf("hfmin: required cube %s is not a dhf-implicant; specification is not hazard-free realizable", sp.Unpack(r))
		}
		nodes, exact := ws.dhfPrimes(r, primeSet)
		res.EnumNodes += nodes
		if !exact {
			res.Exact = false
		}
	}
	// Containment pruning: a candidate strictly contained in another
	// covers a subset of the required cubes the larger one covers (and
	// both are dhf-implicants), so dropping it shrinks the covering
	// matrix without losing any minimum solution.
	primes := pruneContained(ws.primes)
	res.Primes = len(primes)
	// Build the unate covering matrix.
	covers := make([][]int, len(ws.req)) // row -> candidate column indices
	for i, r := range ws.req {
		for j := range primes {
			if primes[j].Contains(r) {
				covers[i] = append(covers[i], j)
			}
		}
		if len(covers[i]) == 0 {
			return nil, fmt.Errorf("hfmin: required cube %s has no covering dhf-prime", sp.Unpack(r))
		}
	}
	chosen, bbNodes, coverExact := solveCover(covers, len(primes))
	res.BranchNodes = bbNodes
	if !coverExact {
		res.Exact = false
	}
	var cover logic.Cover
	for _, j := range chosen {
		cover = append(cover, sp.Unpack(primes[j]))
	}
	sortCover(cover)
	// Post-verify: the cover must contain the whole ON-set and be
	// hazard-free. Deliberately run on the unpacked reference engine
	// (defense in depth: a packed-engine bug cannot certify its own
	// output; cheap at these sizes).
	for _, o := range ws.on {
		if c := sp.Unpack(o); !cover.ContainsCube(c) {
			return nil, fmt.Errorf("hfmin: internal error: ON cube %s not covered", c)
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
