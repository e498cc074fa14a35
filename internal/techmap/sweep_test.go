package techmap

import (
	"math/bits"
	"sync"
	"testing"
)

// sampleLanesRef is the original per-call point generator, kept
// verbatim as the reference TestSweepLanesMatchReference pins the
// shared sweeps to.
func sampleLanesRef(nVars, total int, exhaustive bool) [][]uint64 {
	blocks := (total + 63) / 64
	words := make([][]uint64, blocks)
	flat := make([]uint64, blocks*nVars)
	for b := range words {
		words[b] = flat[b*nVars : (b+1)*nVars : (b+1)*nVars]
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for p := 0; p < total; p++ {
		sample := uint64(p)
		if !exhaustive {
			rng = rng*6364136223846793005 + 1442695040888963407
			sample = rng >> 16
		}
		w := words[p>>6]
		bit := uint64(1) << uint(p&63)
		for i := 0; i < nVars; i++ {
			if sample&(1<<uint(i)) != 0 {
				w[i] |= bit
			}
		}
	}
	return words
}

// The shared sweeps must hand every audit of up to 48 variables the
// points the per-call generator drew, on every lane the audit
// compares: the exhaustive sweep at widths 0–14, the pseudo-random
// one at widths 0–48, where a 48-bit draw still reaches every column.
func TestSweepLanesMatchReference(t *testing.T) {
	check := func(kind string, sw *sweep, n, total int, exhaustive bool) {
		t.Helper()
		ref := sampleLanesRef(n, total, exhaustive)
		for b, want := range ref {
			valid := ^uint64(0)
			if rem := total - b*64; rem < 64 {
				valid = 1<<uint(rem) - 1
			}
			got := sw.row(b, n)
			if len(got) != n {
				t.Fatalf("%s n=%d block %d: row has %d words", kind, n, b, len(got))
			}
			for i := range want {
				if d := (got[i] ^ want[i]) & valid; d != 0 {
					t.Fatalf("%s n=%d: variable %d differs at point %d", kind, n, i, b*64+bits.TrailingZeros64(d))
				}
			}
		}
	}
	for n := 0; n <= sampleBits; n++ {
		sw, total := auditSweep(n)
		if total != 1<<n {
			t.Fatalf("n=%d: %d points, want %d", n, total, 1<<n)
		}
		check("exhaustive", sw, n, total, true)
	}
	for n := 0; n <= lcgBits; n++ {
		check("random", randomSweep(n), n, samplePoints, false)
		if n > sampleBits {
			if sw, total := auditSweep(n); sw != randomSweep(n) || total != samplePoints {
				t.Fatalf("n=%d: audit does not read the random sweep's %d points", n, samplePoints)
			}
		}
	}
}

// A 48-bit draw has no bits above 47, so the per-call generator never
// set a variable past index 47: on a controller of more than 48
// variables no sampled point raised the last outputs or any state bit.
// Every column of the random sweep must now be balanced.
func TestRandomLanesColumnsBalanced(t *testing.T) {
	for _, n := range []int{49, 64, 100} {
		sw := randomSweep(n)
		ones := make([]int, n)
		for b := 0; b < samplePoints/64; b++ {
			for i, w := range sw.row(b, n) {
				ones[i] += bits.OnesCount64(w)
			}
		}
		for i, c := range ones {
			if c < samplePoints*4/10 || c > samplePoints*6/10 {
				t.Errorf("n=%d: column %d holds %d ones in %d points, want 40%%–60%%", n, i, c, samplePoints)
			}
		}
	}
}

// Concurrent audits share one table that grows in 64-column steps. A
// view must read the same points whichever width the table had when it
// was taken: each column depends only on its index and the point.
func TestRandomLanesSharedAcrossWidths(t *testing.T) {
	want := newSweep(192, randomSample())
	widths := []int{15, 38, 49, 64, 65, 100, 130, 190}
	var wg sync.WaitGroup
	for _, n := range widths {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				sw := randomSweep(n)
				if sw.stride < n || sw.stride%64 != 0 {
					t.Errorf("n=%d: table stride %d", n, sw.stride)
					return
				}
				for b := 0; b < samplePoints/64; b++ {
					got, ref := sw.row(b, n), want.row(b, n)
					for i := range ref {
						if got[i] != ref[i] {
							t.Errorf("n=%d: column %d differs in block %d", n, i, b)
							return
						}
					}
				}
			}(n)
		}
	}
	wg.Wait()
}
