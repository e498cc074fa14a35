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
	"runtime"
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

// Cube returns the transition supercube T: each variable at its start
// value where Start and End agree, don't-care where they differ.
func (t Transition) Cube() logic.Cube {
	c := make(logic.Cube, len(t.Start))
	t.cubeInto(c)
	return c
}

// cubeInto writes T into c, which has one literal per variable.
func (t *Transition) cubeInto(c logic.Cube) {
	for i, b := range t.Start {
		switch {
		case b != t.End[i]:
			c[i] = logic.DC
		case b:
			c[i] = logic.One
		default:
			c[i] = logic.Zero
		}
	}
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
// the prime enumeration's state, the primes found and their dedup set,
// the covering matrix and solver state, and the post-verify's cubes.
// Minimize takes a workspace from the free list (or makes one) and
// puts it back on return; in between it belongs to that call and its
// goroutine alone. Each call reslices every buffer from the start, so
// one workspace serves problems of any width, and once its buffers
// have grown a call allocates only the Result it returns. A workspace
// keeps the size of the widest problem and the fullest visited set it
// has served: about 1 MB for a seed that reaches EnumBudget. Nothing a
// call returns points into the workspace: reuse saves allocations and
// changes no result.
type workspace struct {
	space logic.Space // the problem's variables; load rewrites it in place
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
	// primeSet dedups the primes over space. A KeySet's keys depend on
	// its space only through the word count, so load drops the set
	// only when that changes.
	primeSet *logic.KeySet
	cover    coverScratch
	// lits holds the post-verify's unpacked cubes: an ON cube, or a
	// transition cube and one of its sub-cubes.
	lits []logic.Lit
}

// The free list holds the idle workspaces, most recently used last,
// at most maxIdle (GOMAXPROCS at start-up) of them, and keeps them
// across collections. A sync.Pool would not: it parks each workspace
// in one P's private slot, out of reach of the other Ps, and drops
// whatever two collections find idle, so a busy run would keep
// rebuilding workspaces and their visited sets.
var (
	maxIdle  = runtime.GOMAXPROCS(0)
	freeMu   sync.Mutex
	freeList = make([]*workspace, 0, maxIdle)
)

// getWorkspace takes the most recently used idle workspace, or makes
// one when none is idle.
func getWorkspace() *workspace {
	freeMu.Lock()
	n := len(freeList)
	if n == 0 {
		freeMu.Unlock()
		return new(workspace)
	}
	ws := freeList[n-1]
	freeList[n-1] = nil
	freeList = freeList[:n-1]
	freeMu.Unlock()
	return ws
}

// putWorkspace returns ws to the free list, or drops it when the list
// is full.
func putWorkspace(ws *workspace) {
	freeMu.Lock()
	if len(freeList) < maxIdle {
		freeList = append(freeList, ws)
	}
	freeMu.Unlock()
}

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
	if ws.space.Vars() != n {
		sp := *logic.NewSpace(n)
		if ws.space.Words() != sp.Words() {
			ws.primeSet = nil
		}
		ws.space = sp
	}
	w := ws.space.Words()
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
				return &ConflictError{On: ws.space.Unpack(o), Off: ws.space.Unpack(f)}
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
	index := sized(sc.index, ws.space.Vars())
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
	n := ws.space.Vars()
	seen := logic.NewKeySet(&ws.space)
	outSet := logic.NewKeySet(&ws.space)
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
// at a small optimality cost. Each call takes a workspace of its own
// from the free list for its scratch, so concurrent calls, on one
// Problem or many, are safe.
func (p *Problem) Minimize() (*Result, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.load(p); err != nil {
		return nil, err
	}
	if len(ws.req) == 0 {
		return &Result{Cover: nil, Exact: true}, nil // constant-0 function
	}
	sp := &ws.space
	// Generate candidate dhf-primes from each required cube.
	ws.enum.seen.restart()
	ws.primeArena, ws.primes = ws.primeArena[:0], ws.primes[:0]
	if ws.primeSet == nil {
		ws.primeSet = logic.NewKeySet(sp)
	} else {
		ws.primeSet.Reset()
	}
	res := &Result{Required: len(ws.req), Exact: true}
	for _, r := range ws.req {
		if !ws.isDHF(r) {
			return nil, fmt.Errorf("hfmin: required cube %s is not a dhf-implicant; specification is not hazard-free realizable", sp.Unpack(r))
		}
		nodes, exact := ws.dhfPrimes(r, ws.primeSet)
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
	// Build the unate covering matrix: row i lists the candidates
	// containing required cube i.
	sc := &ws.cover
	rows := sized(sc.rows, len(ws.req))
	sc.rows = rows
	for i, r := range ws.req {
		row := rows[i][:0]
		for j := range primes {
			if primes[j].Contains(r) {
				row = append(row, j)
			}
		}
		rows[i] = row
		if len(row) == 0 {
			return nil, fmt.Errorf("hfmin: required cube %s has no covering dhf-prime", sp.Unpack(r))
		}
	}
	chosen, bbNodes, coverExact := sc.solve(rows, len(primes))
	res.BranchNodes = bbNodes
	if !coverExact {
		res.Exact = false
	}
	// The cover is what the call returns: one slice of cubes, all
	// backed by one literal array.
	n := sp.Vars()
	lits := make([]logic.Lit, len(chosen)*n)
	cover := make(logic.Cover, len(chosen))
	for k, j := range chosen {
		cover[k] = lits[k*n : (k+1)*n : (k+1)*n]
		unpackInto(cover[k], primes[j])
	}
	sortCover(cover)
	// Post-verify: the cover must contain the whole ON-set and be
	// hazard-free. Deliberately run on the unpacked reference engine
	// (defense in depth: a packed-engine bug cannot certify its own
	// output; cheap at these sizes).
	ws.lits = sized(ws.lits, 2*n)
	c := logic.Cube(ws.lits[:n])
	for _, o := range ws.on {
		if unpackInto(c, o); !cover.ContainsCube(c) {
			return nil, fmt.Errorf("hfmin: internal error: ON cube %s not covered", c)
		}
	}
	if err := checkCover(cover, p.Transitions, ws.lits); err != nil {
		return nil, fmt.Errorf("hfmin: internal error: %w", err)
	}
	res.Cover = cover
	return res, nil
}

// unpackInto writes p's literals into c, which has one literal per
// variable of p's space.
func unpackInto(c logic.Cube, p logic.PackedCube) {
	for v := range c {
		c[v] = p.Lit(v)
	}
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

// coverScratch is the covering step's scratch, kept in the workspace:
// the matrix Minimize builds and every buffer solve works in. Each
// call reslices the buffers from the start, and the per-row and
// per-column lists keep their capacity from call to call.
type coverScratch struct {
	rows       [][]int // the covering matrix: row → candidate columns
	cands      [][]int // rows' live candidates, pruned by the reductions
	active     []int
	selected   []bool // per column
	colRemoved []bool
	dominated  []bool // per row
	colRows    [][]int
	liveCols   []int
	cols       []int
	// Greedy incumbent and branch-and-bound.
	greedy, lbUsed []bool
	count          []int
	best, rest     []int
	cur            []int
	depth          [][]int // depth-indexed remaining-row sets
}

// solve finds a minimum set of columns covering all rows:
// essential-column extraction and row/column dominance reduce the
// matrix to its cyclic core, a greedy pass seeds the incumbent, and
// branch-and-bound with a maximal-independent-row-set lower bound
// proves minimality. Everything is index-ordered and sequential, so
// the selection is deterministic. It reports the branch-and-bound
// node count and whether minimality was proven within bbBudget. The
// columns returned live in the scratch until the next call.
func (sc *coverScratch) solve(rows [][]int, nCols int) (cols []int, nodes int64, exact bool) {
	selected := cleared(sc.selected, nCols)
	sc.selected = selected
	// Active candidate lists, pruned in place by the reductions.
	cands := sized(sc.cands, len(rows))
	sc.cands = cands
	for i, r := range rows {
		cands[i] = append(cands[i][:0], r...)
	}
	active := sc.active[:0]
	for i := range cands {
		active = append(active, i)
	}
	colRemoved := cleared(sc.colRemoved, nCols)
	sc.colRemoved = colRemoved
	dominated := sized(sc.dominated, len(rows))
	sc.dominated = dominated
	colRows := sized(sc.colRows, nCols)
	sc.colRows = colRows
	liveCols := sc.liveCols[:0]

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
		clear(dominated)
		anyDominated := false
		for ai, i := range active {
			for bi, j := range active {
				if ai == bi || dominated[i] || dominated[j] {
					continue
				}
				if subset(cands[j], cands[i]) && (len(cands[j]) < len(cands[i]) || j < i) {
					dominated[i] = true
					anyDominated = true
				}
			}
		}
		if anyDominated {
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
		for j := range colRows {
			colRows[j] = colRows[j][:0]
		}
		for _, i := range active {
			for _, j := range cands[i] {
				colRows[j] = append(colRows[j], i)
			}
		}
		liveCols = liveCols[:0]
		for j := range colRows {
			if len(colRows[j]) > 0 {
				liveCols = append(liveCols, j)
			}
		}
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
		greedy := cleared(sc.greedy, nCols)
		count := sized(sc.count, nCols)
		sc.greedy, sc.count = greedy, count
		best := sc.best[:0]
		rest := append(sc.rest[:0], active...)
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
		sc.rest = rest
		sort.Ints(best)

		// Lower bound: a set of pairwise column-disjoint rows needs
		// one distinct column each (a maximal independent row set,
		// built greedily in row order).
		lbUsed := sized(sc.lbUsed, nCols)
		sc.lbUsed = lbUsed
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
		cur := sc.cur[:0]
		// Depth-indexed scratch rows: the recursion reuses one buffer
		// per depth instead of allocating a remaining-set per node.
		arena := sized(sc.depth, len(active)+1)
		sc.depth = arena
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
		sc.cur, sc.best = cur, best
		exact = !overflow
		sort.Ints(best)
		for _, j := range best {
			selected[j] = true
		}
	}
	sc.active, sc.liveCols = active, liveCols
	cols = sc.cols[:0]
	for j, sel := range selected {
		if sel {
			cols = append(cols, j)
		}
	}
	sc.cols = cols
	return cols, nodes, exact
}

// cleared returns buf resliced to n elements, all false.
func cleared(buf []bool, n int) []bool {
	buf = sized(buf, n)
	clear(buf)
	return buf
}

// CheckCover verifies that a cover implements the specified transitions
// without logic hazards: correct values, single-cube containment of
// static-1 and 1→0 required cubes, and no illegal intersections of
// privileged cubes. It is used both as a post-check of minimization and
// to audit technology-mapped logic (Section 5 of the paper).
func CheckCover(cover logic.Cover, transitions []Transition) error {
	return checkCover(cover, transitions, nil)
}

// checkCover is CheckCover with its scratch, a transition cube and one
// of its sub-cubes, in buf; it allocates only when buf is shorter
// than twice a transition's arity.
func checkCover(cover logic.Cover, transitions []Transition, buf []logic.Lit) error {
	for i := range transitions {
		t := &transitions[i]
		n := len(t.Start)
		buf = sized(buf, 2*n)
		T, sub := logic.Cube(buf[:n]), logic.Cube(buf[n:])
		t.cubeInto(T)
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
			for v := range t.Start {
				if t.Start[v] == t.End[v] {
					continue
				}
				t.subCube(sub, T, v)
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
			for v := range t.Start {
				if t.Start[v] == t.End[v] {
					continue
				}
				t.subCube(sub, T, v)
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

// subCube writes into sub the transition cube T with changed variable
// v held at its start value.
func (t *Transition) subCube(sub, T logic.Cube, v int) {
	copy(sub, T)
	if t.Start[v] {
		sub[v] = logic.One
	} else {
		sub[v] = logic.Zero
	}
}

// sortCover orders the cubes by their rendered form ("-" before "0"
// before "1"), comparing literals instead of rendering them.
func sortCover(cv logic.Cover) {
	slices.SortFunc(cv, func(a, b logic.Cube) int {
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				return litRank(a[i]) - litRank(b[i])
			}
		}
		return len(a) - len(b)
	})
}

// litRank orders literals as Cube.String renders them: '-' < '0' < '1'.
func litRank(l logic.Lit) int {
	switch l {
	case logic.Zero:
		return 1
	case logic.One:
		return 2
	}
	return 0
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
