package techmap

import (
	"math/bits"
	"sync"
)

// The audit's sample points come from two fixed tables, each built
// once per process and then shared read-only by every audit,
// concurrent ones included. An n-variable audit reads the first n
// columns of each block row, so no audit generates points of its own.
const (
	// sampleBits sets the audit's point budget: controllers of up to
	// sampleBits variables are swept exhaustively, wider ones on
	// 2^sampleBits pseudo-random points.
	sampleBits   = 14
	samplePoints = 1 << sampleBits

	// The pseudo-random sweep's LCG. One draw keeps the state's top
	// lcgBits bits, which are the sweep's columns 0 to lcgBits-1.
	lcgSeed = 0x9e3779b97f4a7c15
	lcgMul  = 6364136223846793005
	lcgInc  = 1442695040888963407
	lcgBits = 48

	// wideSeed seeds the independent SplitMix64 stream that fills
	// columns lcgBits and up, which a 48-bit draw leaves all zero.
	wideSeed = 0x243f6a8885a308d3
)

// sweep is a point set packed 64 points to a block: word b*stride+i
// holds variable i at points 64b..64b+63, bit l being point 64b+l.
// It is immutable once built.
type sweep struct {
	stride int
	words  []uint64
}

// row returns the read-only view of block b's first n variables.
func (s *sweep) row(b, n int) []uint64 {
	lo := b * s.stride
	return s.words[lo : lo+n : lo+n]
}

// newSweep packs samplePoints points of stride variables. sample is
// called once per point, in point order, and fills one word per group
// of 64 variables: bit j of dst[g] is variable 64g+j at that point. It
// sets no bit at or past stride.
func newSweep(stride int, sample func(p int, dst []uint64)) *sweep {
	s := &sweep{stride: stride, words: make([]uint64, samplePoints/64*stride)}
	dst := make([]uint64, (stride+63)/64)
	for p := 0; p < samplePoints; p++ {
		sample(p, dst)
		row := s.words[(p>>6)*stride:][:stride]
		bit := uint64(1) << uint(p&63)
		for g, w := range dst {
			for ; w != 0; w &= w - 1 {
				row[64*g+bits.TrailingZeros64(w)] |= bit
			}
		}
	}
	return s
}

// exhaustiveSweep enumerates the 2^14 points of 14 variables in
// counting order; an n-variable audit, n ≤ 14, reads its first 2^n
// points.
var exhaustiveSweep = sync.OnceValue(func() *sweep {
	return newSweep(sampleBits, func(p int, dst []uint64) { dst[0] = uint64(p) })
})

// randomTable holds the widest pseudo-random sweep built so far.
var randomTable struct {
	sync.Mutex
	s *sweep
}

// randomSweep returns the pseudo-random sweep with at least n columns,
// growing the shared table in whole 64-column steps. A column is a
// function of its index and the point alone, so every width agrees on
// the columns it shares with another, and the points an audit reads do
// not depend on which widths the process built first.
func randomSweep(n int) *sweep {
	randomTable.Lock()
	defer randomTable.Unlock()
	if randomTable.s == nil || randomTable.s.stride < n {
		randomTable.s = newSweep(64*max(1, (n+63)/64), randomSample())
	}
	return randomTable.s
}

// randomSample draws the pseudo-random sweep point by point. Columns
// 0–47 of point p are the p-th 48-bit draw of the LCG; columns 48–63
// are the top bits of SplitMix64 word p, and 64-column group g ≥ 1 is
// word g·2^14+p.
func randomSample() func(p int, dst []uint64) {
	rng := uint64(lcgSeed)
	return func(p int, dst []uint64) {
		rng = rng*lcgMul + lcgInc
		dst[0] = rng>>(64-lcgBits) | splitmix64(wideSeed, uint64(p))&^(1<<lcgBits-1)
		for g := 1; g < len(dst); g++ {
			dst[g] = splitmix64(wideSeed, uint64(g)<<sampleBits|uint64(p))
		}
	}
}

// splitmix64 returns word k of the SplitMix64 stream with the given
// seed.
func splitmix64(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// auditSweep returns the sweep an n-variable audit reads and its point
// count: the whole 2^n space up to 14 variables, 2^14 pseudo-random
// points beyond.
func auditSweep(n int) (*sweep, int) {
	if n <= sampleBits {
		return exhaustiveSweep(), 1 << n
	}
	return randomSweep(n), samplePoints
}
