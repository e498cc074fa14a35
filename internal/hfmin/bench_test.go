package hfmin

import (
	"fmt"
	"testing"
)

// benchProblem builds a sequencer-like instance: a chain of dynamic
// transitions walking pairs of variables, which yields a realistic mix
// of required cubes, OFF cubes and privileged cubes.
func benchProblem(n int) *Problem {
	var trs []Transition
	for v := 0; v+1 < n; v += 2 {
		a := make([]bool, n)
		b := make([]bool, n)
		for i := 0; i < v; i++ {
			a[i], b[i] = true, true
		}
		b[v] = true
		trs = append(trs, Transition{Start: a, End: b, From: false, To: true})
		c := append([]bool(nil), b...)
		c[v+1] = true
		trs = append(trs, Transition{Start: b, End: c, From: true, To: false})
	}
	return &Problem{Vars: n, Transitions: trs}
}

// BenchmarkDHFPrimes measures the prime enumeration alone: every
// required cube of the instance expanded to its maximal dhf-implicants,
// on the synthetic sequencer chains and on the Table 3 function whose
// seed yields the most enumeration leaves.
func BenchmarkDHFPrimes(b *testing.B) {
	type benchCase struct {
		name string
		p    *Problem
	}
	var cases []benchCase
	for _, n := range []int{10, 14, 18} {
		cases = append(cases, benchCase{fmt.Sprintf("vars%d", n), benchProblem(n)})
	}
	cases = append(cases, benchCase{"stack-most-leaves", loadProblem(b, "stack-most-leaves.hfp")})
	for _, c := range cases {
		ws := loadWorkspace(b, c.p)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range ws.req {
					ws.primesOf(s)
				}
			}
		})
	}
}

// BenchmarkSolveCover measures the unate covering solver on a cyclic
// matrix (rows overlapping in a ring, so reductions cannot finish the
// job and the branch-and-bound runs).
func BenchmarkSolveCover(b *testing.B) {
	for _, size := range []int{12, 24, 48} {
		rows := make([][]int, size)
		for i := range rows {
			// Each row accepts three columns of a ring of 2*size
			// columns; neighbouring rows share one, so nothing is
			// essential and little dominates.
			base := 2 * i
			rows[i] = []int{base % (2 * size), (base + 1) % (2 * size), (base + 2) % (2 * size)}
		}
		b.Run(fmt.Sprintf("rows%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveCover(rows, 2*size)
			}
		})
	}
}

// BenchmarkMinimize measures a full single-output minimization.
func BenchmarkMinimize(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		p := benchProblem(n)
		b.Run(fmt.Sprintf("vars%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Minimize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinimizeTable3 measures Minimize on real traffic: one op
// is a pass over every problem of the Table 3 corpus.
func BenchmarkMinimizeTable3(b *testing.B) {
	_, problems := loadProblems(b, "table3.hfp")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			if _, err := p.Minimize(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
