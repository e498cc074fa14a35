package hfmin

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"balsabm/internal/logic"
)

func pt(bits ...int) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = b != 0
	}
	return out
}

func minimize(t *testing.T, p *Problem) logic.Cover {
	t.Helper()
	res, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	return res.Cover
}

// A static 1→1 transition must be held by a single product even when
// two products would cover its points.
func TestStaticHolding(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		// b stays 1 while a toggles: f == b.
		{Start: pt(0, 1), End: pt(1, 1), From: true, To: true},
		{Start: pt(1, 1), End: pt(0, 1), From: true, To: true},
		// With b low, f is 0.
		{Start: pt(0, 0), End: pt(1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 1 || cover[0].String() != "-1" {
		t.Fatalf("got %v, want single cube -1", cover)
	}
	// A fragmented cover must be rejected by the checker.
	frag := logic.Cover{mustCube(t, "01"), mustCube(t, "11")}
	if err := CheckCover(frag, p.Transitions); err == nil {
		t.Fatal("fragmented cover accepted")
	}
}

// The classic dynamic 1→0 case: both inputs fall (in context c=1); the
// cover needs one product per falling literal, anchored at the start
// point.
func TestDynamicFall(t *testing.T) {
	p := &Problem{Vars: 3, Names: []string{"a", "b", "c"}, Transitions: []Transition{
		{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 2 {
		t.Fatalf("got %v", cover)
	}
	got := cover.String()
	if !strings.Contains(got, "1-1") || !strings.Contains(got, "-11") {
		t.Fatalf("got %v, want 1-1 and -11", cover)
	}
	// An implicant intersecting the falling transition without its
	// start point is an illegal (hazardous) intersection.
	bad := logic.Cover{mustCube(t, "1-1"), mustCube(t, "011")}
	if err := CheckCover(bad, p.Transitions); err == nil {
		t.Fatal("illegal intersection accepted")
	}
}

// 0→1 transitions: only the end point is ON; products must stay off
// during the rise.
func TestDynamicRise(t *testing.T) {
	p := &Problem{Vars: 3, Transitions: []Transition{
		{Start: pt(0, 0, 1), End: pt(1, 1, 1), From: false, To: true},
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	if !cover.Eval(pt(1, 1, 1)) {
		t.Fatal("end point uncovered")
	}
	if cover.Eval(pt(0, 0, 1)) {
		t.Fatal("start point covered")
	}
	if cover.Eval(pt(1, 0, 1)) || cover.Eval(pt(0, 1, 1)) {
		t.Fatal("cover on during the rise's OFF phase")
	}
}

// The passivator's acknowledge function minimizes to the majority
// (C-element) cover ab + ay + by over inputs a, b and state bit y.
func TestPassivatorCElement(t *testing.T) {
	p := &Problem{Vars: 3, Names: []string{"a", "b", "y"}, Transitions: []Transition{
		// State 0 (y=0): inputs rise, output rises at the end.
		{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: true},
		// State change y: 0→1 with inputs high: f holds 1.
		{Start: pt(1, 1, 0), End: pt(1, 1, 1), From: true, To: true},
		// State 1 (y=1): inputs fall, output falls at the end.
		{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
		// State change y: 1→0 with inputs low: f holds 0.
		{Start: pt(0, 0, 1), End: pt(0, 0, 0), From: false, To: false},
	}}
	cover := minimize(t, p)
	want := map[string]bool{"11-": true, "1-1": true, "-11": true}
	if len(cover) != 3 {
		t.Fatalf("got %v, want majority cover", cover)
	}
	for _, c := range cover {
		if !want[c.String()] {
			t.Fatalf("unexpected product %s in %v", c, cover)
		}
	}
}

// Contradictory specifications (the same point required 0 and 1) must
// be reported as a ConflictError — the signal minimalist uses to refine
// the state assignment.
func TestConflictDetection(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: true},
		{Start: pt(1, 1), End: pt(0, 0), From: true, To: false},
		// Without a state variable, the mid points clash:
		{Start: pt(1, 0), End: pt(1, 1), From: true, To: true},
	}}
	_, err := p.Minimize()
	if err == nil {
		t.Fatal("expected conflict")
	}
	if _, ok := err.(*ConflictError); !ok {
		t.Fatalf("got %T: %v", err, err)
	}
}

// A constant-0 function minimizes to the empty cover.
func TestConstantZero(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 0 {
		t.Fatalf("got %v", cover)
	}
}

// Exact covering beats per-required-cube selection: overlapping
// required cubes shared by one prime.
func TestMinimumCover(t *testing.T) {
	// f = 1 whenever a=1, expressed through two static transitions
	// whose cubes both fit inside the single prime 1--.
	p := &Problem{Vars: 3, Transitions: []Transition{
		{Start: pt(1, 0, 0), End: pt(1, 1, 0), From: true, To: true},
		{Start: pt(1, 0, 1), End: pt(1, 1, 1), From: true, To: true},
		{Start: pt(0, 0, 0), End: pt(0, 1, 1), From: false, To: false},
	}}
	cover := minimize(t, p)
	if len(cover) != 1 || cover[0].String() != "1--" {
		t.Fatalf("got %v, want 1--", cover)
	}
}

// Transition sanity errors.
func TestBadTransitions(t *testing.T) {
	p := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(0, 0), From: false, To: true},
	}}
	if _, err := p.Minimize(); err == nil {
		t.Fatal("value change without input change accepted")
	}
	p = &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0), End: pt(0, 0), From: false, To: false},
	}}
	if _, err := p.Minimize(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// CheckCover also audits value correctness at transition end points.
func TestCheckCoverValues(t *testing.T) {
	trans := []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: true},
		{Start: pt(1, 1), End: pt(0, 0), From: true, To: false},
	}
	// Constant-0 cover: misses the 0→1 end point.
	if err := CheckCover(nil, trans); err == nil {
		t.Fatal("empty cover accepted")
	}
	// Tautology cover: stuck at 1 at the 1→0 end point and on during
	// the OFF phase of the rise.
	if err := CheckCover(logic.Cover{mustCube(t, "--")}, trans); err == nil {
		t.Fatal("tautology accepted")
	}
}

// The result must report how it was obtained: exact instances carry
// Exact with a nonzero enumeration node count, and wide instances
// (>64 specified variables, served by the generic packed path) agree
// with the mask path on exactness.
func TestResultExactAndCounters(t *testing.T) {
	p := benchProblem(14)
	res, err := p.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("benchProblem(14) fell back to greedy: %+v", res)
	}
	if res.EnumNodes == 0 {
		t.Fatal("exact result reports zero enumeration nodes")
	}
	if res.BranchNodes < 0 {
		t.Fatalf("negative branch nodes: %d", res.BranchNodes)
	}
	// A trivial constant-zero function is exact with no work at all.
	zero := &Problem{Vars: 2, Transitions: []Transition{
		{Start: pt(0, 0), End: pt(1, 1), From: false, To: false},
	}}
	rz, err := zero.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if !rz.Exact {
		t.Fatal("constant-zero function not exact")
	}
}

// dhfPrimes against a brute-force oracle: enumerate every subset of
// the seed's specified literals, keep the subsets whose freed cube is
// a dhf-implicant under the reference []Lit engine, filter to the
// maximal ones, and require the constraint-branching enumeration to
// return exactly that set.
func TestDHFPrimesOracle(t *testing.T) {
	for pi, p := range oracleProblems() {
		_, off, required, priv, err := p.setsRef()
		if err != nil {
			t.Fatal(err)
		}
		isDHFRef := func(c logic.Cube) bool {
			for _, o := range off {
				if c.Intersects(o) {
					return false
				}
			}
			for _, pv := range priv {
				if c.Intersects(pv.cube) && !c.ContainsPoint(pv.start) {
					return false
				}
			}
			return true
		}
		ws := loadWorkspace(t, p)
		for _, r := range required {
			var spec []int
			for v := 0; v < p.Vars; v++ {
				if r[v] != logic.DC {
					spec = append(spec, v)
				}
			}
			if len(spec) > 16 {
				t.Fatalf("problem %d: seed too wide for the oracle", pi)
			}
			// All feasible freed-subsets, as cubes.
			var feasible []logic.Cube
			for s := 0; s < 1<<len(spec); s++ {
				c := r.Clone()
				for i, v := range spec {
					if s>>i&1 != 0 {
						c[v] = logic.DC
					}
				}
				if isDHFRef(c) {
					feasible = append(feasible, c)
				}
			}
			want := map[string]bool{}
			for _, c := range feasible {
				maximal := true
				for _, d := range feasible {
					if !c.Equal(d) && d.Contains(c) {
						maximal = false
						break
					}
				}
				if maximal {
					want[c.String()] = true
				}
			}
			got, _, exact := ws.primesOf(ws.sp.Pack(r))
			if !exact {
				t.Fatalf("problem %d seed %s: enumeration truncated", pi, r)
			}
			if len(got) != len(want) {
				t.Errorf("problem %d seed %s: got %d primes, oracle has %d", pi, r, len(got), len(want))
			}
			for _, c := range got {
				if !want[ws.sp.Unpack(c).String()] {
					t.Errorf("problem %d seed %s: %s is not an oracle prime", pi, r, ws.sp.Unpack(c))
				}
			}
		}
	}
}

// oracleProblems are the instances small enough for the brute-force
// oracle of TestDHFPrimesOracle.
func oracleProblems() []*Problem {
	return []*Problem{
		benchProblem(10),
		benchProblem(12),
		{Vars: 3, Transitions: []Transition{
			{Start: pt(1, 1, 1), End: pt(0, 0, 1), From: true, To: false},
			{Start: pt(0, 0, 0), End: pt(1, 1, 0), From: false, To: false},
		}},
	}
}

func TestFormatPLA(t *testing.T) {
	out := FormatPLA("f", []string{"a", "b"}, logic.Cover{mustCube(t, "1-")})
	for _, want := range []string{".ob f", ".i 2", ".ilb a b", ".p 1", "1- 1", ".e"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func mustCube(t *testing.T, s string) logic.Cube {
	t.Helper()
	c, err := logic.ParseCube(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// loadProblems reads the problems frozen as text in testdata/name:
// '#' comment lines; a "problem <label>" line opening each problem
// (optional when the file holds just one); a "vars N" line; an
// optional "names ..." line; then one transition per line as
// "<start> <end> <from><to>" in 0/1 digits. It returns each problem
// with its label ("" for an unlabeled one).
func loadProblems(tb testing.TB, name string) (labels []string, problems []*Problem) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	bitsOf := func(s string) []bool {
		out := make([]bool, len(s))
		for i := range s {
			out[i] = s[i] == '1'
		}
		return out
	}
	var p *Problem
	open := func(label string) {
		p = &Problem{}
		labels = append(labels, label)
		problems = append(problems, p)
	}
	for ln, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if f[0] == "problem" && len(f) == 2 {
			open(f[1])
			continue
		}
		if p == nil {
			open("")
		}
		switch {
		case f[0] == "vars" && len(f) == 2:
			if p.Vars, err = strconv.Atoi(f[1]); err != nil {
				tb.Fatalf("%s:%d: %v", name, ln+1, err)
			}
		case f[0] == "names":
			p.Names = f[1:]
		case len(f) == 3 && len(f[2]) == 2:
			p.Transitions = append(p.Transitions, Transition{
				Start: bitsOf(f[0]), End: bitsOf(f[1]), From: f[2][0] == '1', To: f[2][1] == '1'})
		default:
			tb.Fatalf("%s:%d: malformed line %q", name, ln+1, line)
		}
	}
	return labels, problems
}

// loadProblem reads a file of testdata/ holding a single problem (see
// loadProblems for the format).
func loadProblem(tb testing.TB, name string) *Problem {
	tb.Helper()
	_, problems := loadProblems(tb, name)
	if len(problems) != 1 {
		tb.Fatalf("%s holds %d problems, want 1", name, len(problems))
	}
	return problems[0]
}

// primesOf runs dhfPrimes on one seed with no dedup against earlier
// seeds and returns its primes, which live in ws until the next call.
func (ws *workspace) primesOf(seed logic.PackedCube) (primes []logic.PackedCube, nodes int64, exact bool) {
	ws.primeArena, ws.primes = ws.primeArena[:0], ws.primes[:0]
	nodes, exact = ws.dhfPrimes(seed, nil)
	return ws.primes, nodes, exact
}

// randomProblems returns n seeded random instances that pass the
// specification consistency check: short bursts between random points,
// with random start and end values.
func randomProblems(seed int64, n int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	var out []*Problem
	for len(out) < n {
		vars := 3 + rng.Intn(14)
		if rng.Intn(25) == 0 {
			vars = 64
		}
		p := &Problem{Vars: vars}
		for i := 1 + rng.Intn(8); i > 0; i-- {
			a := make([]bool, vars)
			for v := range a {
				a[v] = rng.Intn(2) == 0
			}
			b := append([]bool(nil), a...)
			for j := 1 + rng.Intn(3); j > 0; j-- {
				v := rng.Intn(vars)
				b[v] = !b[v]
			}
			p.Transitions = append(p.Transitions, Transition{
				Start: a, End: b, From: rng.Intn(2) == 0, To: rng.Intn(2) == 0})
		}
		if _, _, required, _, err := p.setsRef(); err == nil && len(required) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// dhfPrimes must return exactly what the original map-memoized,
// quadratically filtered enumeration (dhfPrimesMaskRef) returned: the
// same primes in the same order, the same node count and the same
// exactness, seed by seed. The flow's byte-identity rests on the order,
// which TestDHFPrimesOracle (a set comparison) does not pin. The
// reference scans every OFF constraint; dhfPrimesMask drops those
// containing an earlier one, and the walk must not notice. The test
// counts the dropped constraints to show the comparison covers them.
func TestDHFPrimesMaskMatchesReference(t *testing.T) {
	type named struct {
		name string
		p    *Problem
	}
	var problems []named
	for n := 10; n <= 18; n++ {
		problems = append(problems, named{fmt.Sprintf("benchProblem(%d)", n), benchProblem(n)})
	}
	for i, p := range oracleProblems() {
		problems = append(problems, named{fmt.Sprintf("oracle %d", i), p})
	}
	for _, f := range []string{"stack-most-leaves.hfp", "corpus-over-budget.hfp"} {
		problems = append(problems, named{f, loadProblem(t, f)})
	}
	labels, table3 := loadProblems(t, "table3.hfp")
	for i, p := range table3 {
		problems = append(problems, named{labels[i], p})
	}
	for i, p := range randomProblems(1, 100) {
		problems = append(problems, named{fmt.Sprintf("random %d", i), p})
	}
	// A 64-literal seed with no constraint: the root is a leaf, and its
	// mask is ^uint64(0).
	x := make([]bool, 64)
	problems = append(problems, named{"unconstrained 64-literal point", &Problem{Vars: 64,
		Transitions: []Transition{{Start: x, End: x, From: true, To: true}}}})

	seeds, overBudget := 0, map[string]int{}
	offScanned, offKept := 0, 0
	for _, np := range problems {
		ws := loadWorkspace(t, np.p)
		for _, seed := range ws.req {
			r := ws.sp.Unpack(seed)
			var spec []int
			for v := 0; v < np.p.Vars; v++ {
				if r[v] != logic.DC {
					spec = append(spec, v)
				}
			}
			want, wantNodes, wantExact := ws.dhfPrimesMaskRef(seed, spec)
			got, gotNodes, gotExact := ws.primesOf(seed)
			seeds++
			offScanned += len(ws.off)
			offKept += len(ws.enum.offConf)
			if !wantExact {
				overBudget[np.name]++
			}
			if gotNodes != wantNodes || gotExact != wantExact {
				t.Errorf("%s seed %s: nodes/exact %d/%v, reference %d/%v",
					np.name, r, gotNodes, gotExact, wantNodes, wantExact)
			}
			if len(got) != len(want) {
				t.Errorf("%s seed %s: %d primes, reference %d", np.name, r, len(got), len(want))
				continue
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Errorf("%s seed %s: prime %d is %s, reference %s",
						np.name, r, i, ws.sp.Unpack(got[i]), ws.sp.Unpack(want[i]))
					break
				}
			}
		}
	}
	if overBudget["corpus-over-budget.hfp"] == 0 {
		t.Error("no seed of corpus-over-budget.hfp overran EnumBudget; the greedy fallback went untested")
	}
	if offKept >= offScanned {
		t.Errorf("kept %d of %d OFF constraints: no dominated one was dropped", offKept, offScanned)
	}
	t.Logf("%d seeds, over budget: %v; OFF constraints kept %d of %d", seeds, overBudget, offKept, offScanned)
}

// maskSet agrees with a map on random inserts across several resizes,
// including keys 0 and ^0, and starts empty again after reset. One set
// serves every round, shrinking on restart and regrowing inside its
// buffer; no key of a previous round may survive, and the buffer past
// the table must stay zero.
func TestMaskSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := []uint64{0, ^uint64(0), 1, 1 << 63}
	for i := 0; i < 6000; i++ {
		switch i % 3 {
		case 0:
			pool = append(pool, rng.Uint64())
		case 1:
			pool = append(pool, uint64(rng.Intn(1<<12))) // low bits only
		default:
			pool = append(pool, uint64(rng.Intn(1<<12))<<52) // high bits only
		}
	}
	var s maskSet
	var prev map[uint64]bool
	for round, inserts := range []int{30000, 50, 8000, 20000, 5, 0, 12000, 3000} {
		// Odd rounds restart, shrinking the table to minSlots as every
		// Minimize does, so the next large round regrows inside the
		// buffer; even rounds only reset.
		if round%2 == 1 {
			s.restart()
			if len(s.slots) > minSlots {
				t.Fatalf("round %d: restarted table has %d slots", round, len(s.slots))
			}
		} else {
			s.reset()
		}
		for k := range prev {
			if s.has(k) {
				t.Fatalf("round %d: stale key %#x survived", round, k)
			}
		}
		ref := map[uint64]bool{}
		for i := 0; i < inserts; i++ {
			k := pool[rng.Intn(len(pool))]
			if got, want := s.add(k), !ref[k]; got != want {
				t.Fatalf("round %d: add(%#x) = %v, map says %v", round, k, got, want)
			}
			ref[k] = true
		}
		for k := range ref {
			if s.add(k) {
				t.Fatalf("round %d: %#x lost", round, k)
			}
		}
		size := s.n
		if s.hasZero {
			size++
		}
		if size != len(ref) {
			t.Fatalf("round %d: set holds %d keys, map %d", round, size, len(ref))
		}
		for _, k := range s.slots[len(s.slots):cap(s.slots)] {
			if k != 0 {
				t.Fatalf("round %d: key %#x past the table", round, k)
			}
		}
		prev = ref
	}
}

// has reports whether k is in the set, without inserting it.
func (s *maskSet) has(k uint64) bool {
	if k == 0 {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// maximalMasksRef is the all-pairs maximality filter maximalMasks
// replaced.
func maximalMasksRef(masks []uint64) []uint64 {
	var out []uint64
	for _, s := range masks {
		maximal := true
		for _, t := range masks {
			if s != t && s&^t == 0 {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// maximalMasks agrees with the quadratic filter, order included, on
// random distinct mask sets, nested chains and many-way popcount ties.
func TestMaximalMasksMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc maskScratch
	check := func(name string, masks []uint64) {
		t.Helper()
		seen := map[uint64]bool{}
		distinct := masks[:0]
		for _, s := range masks {
			if !seen[s] {
				seen[s] = true
				distinct = append(distinct, s)
			}
		}
		rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
		want := maximalMasksRef(distinct)
		got := sc.maximalMasks(append([]uint64(nil), distinct...))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: got %x, want %x", name, got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		width := []uint{4, 8, 16, 64}[trial%4]
		var random []uint64
		for i := rng.Intn(300); i > 0; i-- {
			s := rng.Uint64()
			if width < 64 {
				s &= 1<<width - 1
			}
			random = append(random, s)
		}
		check(fmt.Sprintf("random width %d", width), random)

		// Nested chains: each mask sets one more random bit.
		var chains []uint64
		for c := rng.Intn(5); c >= 0; c-- {
			var s uint64
			for i := rng.Intn(64); i > 0; i-- {
				s |= 1 << uint(rng.Intn(64))
				chains = append(chains, s)
			}
		}
		check("nested chains", chains)
	}
	// Many-way ties: all 70 four-bit subsets of 8 bits are maximal;
	// their two-bit subsets and the empty mask are not.
	var ties []uint64
	for s := uint64(0); s < 256; s++ {
		if n := bits.OnesCount64(s); n == 4 || n == 2 || n == 0 {
			ties = append(ties, s)
		}
	}
	check("ties", ties)
	check("full and empty", []uint64{0, ^uint64(0), 1 << 63})
	check("empty set", nil)
}

// TestMinimizeTable3Pinned minimizes every problem of the Table 3
// corpus (testdata/table3.hfp) and pins the work counters and the
// exact covers: the sums of EnumNodes, BranchNodes and Primes, the
// number of exact results, and a sha256 over every cover in FormatPLA
// form, so any drift in the search or the covers shows here.
func TestMinimizeTable3Pinned(t *testing.T) {
	const (
		wantProblems = 100
		wantEnum     = 160741
		wantBranch   = 0
		wantPrimes   = 957
		wantExact    = 100
		wantCovers   = "fb2e3a87ced751723c9241f34e78e1257241d04efc33fd2ebd256b9de1b00615"
	)
	labels, problems := loadProblems(t, "table3.hfp")
	var enum, branch int64
	primes, exact := 0, 0
	h := sha256.New()
	for i, p := range problems {
		res, err := p.Minimize()
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		enum += res.EnumNodes
		branch += res.BranchNodes
		primes += res.Primes
		if res.Exact {
			exact++
		}
		io.WriteString(h, FormatPLA(labels[i], p.Names, res.Cover))
	}
	covers := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d problems: EnumNodes %d, BranchNodes %d, Primes %d, exact %d, covers %s",
		len(problems), enum, branch, primes, exact, covers)
	if len(problems) != wantProblems || enum != wantEnum || branch != wantBranch ||
		primes != wantPrimes || exact != wantExact || covers != wantCovers {
		t.Errorf("got %d problems, EnumNodes %d, BranchNodes %d, Primes %d, exact %d, covers %s;\n"+
			"want %d, %d, %d, %d, %d, %s", len(problems), enum, branch, primes, exact, covers,
			wantProblems, wantEnum, wantBranch, wantPrimes, wantExact, wantCovers)
	}
}

// paddedProblems returns seeded random consistent problems over n
// variables whose cubes specify only the first few: static and 1→0
// transitions that also toggle every later variable. Their seeds stay
// on the mask path at any width, so they are cheap to minimize in
// spaces of two and three plane words.
func paddedProblems(seed int64, n, count int) []*Problem {
	const core = 6
	rng := rand.New(rand.NewSource(seed))
	var out []*Problem
	for len(out) < count {
		p := &Problem{Vars: n}
		for i := 2 + rng.Intn(5); i > 0; i-- {
			a := make([]bool, n)
			for v := range a {
				a[v] = rng.Intn(2) == 0
			}
			b := append([]bool(nil), a...)
			for v := core; v < n; v++ {
				b[v] = !b[v]
			}
			for j := rng.Intn(3); j > 0; j-- {
				v := rng.Intn(core)
				b[v] = !b[v]
			}
			from := rng.Intn(2) == 0
			p.Transitions = append(p.Transitions, Transition{Start: a, End: b, From: from, To: from && rng.Intn(2) == 0})
		}
		if _, _, required, _, err := p.setsRef(); err == nil && len(required) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Minimize takes its scratch from a pool of workspaces, which pass
// between goroutines and between problems of different widths. Eight
// goroutines each minimize every problem, from different starting
// points so that widths interleave, and each must get the serial
// result. Run under -race.
func TestMinimizeConcurrent(t *testing.T) {
	problems := []*Problem{loadProblem(t, "stack-most-leaves.hfp"), benchProblem(14), benchProblem(10)}
	_, table3 := loadProblems(t, "table3.hfp")
	problems = append(problems, table3[:12]...)
	for _, n := range []int{64, 65, 130} {
		problems = append(problems, paddedProblems(int64(n), n, 3)...)
	}
	want := make([]*Result, len(problems))
	for i, p := range problems {
		var err error
		if want[i], err = p.Minimize(); err != nil {
			t.Fatalf("problem %d (%d variables): %v", i, p.Vars, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range problems {
				i := (k + 3*g) % len(problems)
				got, err := problems[i].Minimize()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Minimize of problem %d (%d variables): %+v, serial %+v",
						i, problems[i].Vars, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// dhfPrimesMaskRef is the original dhfPrimesMask, kept verbatim but for
// its receiver as the reference TestDHFPrimesMaskMatchesReference pins
// the rewrite to.
func (ws *workspace) dhfPrimesMaskRef(seed logic.PackedCube, spec []int) (out []logic.PackedCube, nodes int64, exact bool) {
	k := len(spec)
	offConf := make([]uint64, 0, len(ws.off))
	for _, o := range ws.off {
		var conf uint64
		for i, v := range spec {
			ol := o.Lit(v)
			if ol != logic.DC && ol != seed.Lit(v) {
				conf |= 1 << uint(i)
			}
		}
		offConf = append(offConf, conf)
	}
	privConf := make([]uint64, len(ws.priv))
	privDist := make([]uint64, len(ws.priv))
	for pi := range ws.priv {
		for i, v := range spec {
			pl := ws.priv[pi].cube.Lit(v)
			if pl != logic.DC && pl != seed.Lit(v) {
				privConf[pi] |= 1 << uint(i)
			}
			startOne := ws.priv[pi].start[v>>6]>>uint(v&63)&1 != 0
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
	var leaves []uint64
	seen := map[uint64]struct{}{}
	overflow := false
	var walk func(ex uint64)
	walk = func(ex uint64) {
		if overflow {
			return
		}
		if _, dup := seen[ex]; dup {
			return
		}
		if nodes++; nodes > EnumBudget {
			overflow = true
			return
		}
		seen[ex] = struct{}{}
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
	// Distinct exclusion sets can close on nested candidates; keep only
	// the maximal masks (the true dhf-primes).
	for _, s := range leaves {
		maximal := true
		for _, t := range leaves {
			if s != t && s&^t == 0 {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
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
