// Package xrand provides small, fast, deterministic random number
// generators used by the graph generators and the benchmark harness.
//
// The package exists so that every generated graph is reproducible from a
// single uint64 seed, independent of the Go version's math/rand behaviour,
// and so that independent parallel streams can be split cheaply (one
// SplitMix64 step per stream).
package xrand

import "math"

// SplitMix64 is the mixing function of the SplitMix64 generator
// (Steele, Lea, Flood; JPDC 2014). It maps a counter to a well mixed
// 64-bit value and is used both directly and to seed Gen streams.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Gen is a xoshiro256**-class generator. The zero value is NOT valid;
// construct one with New. Gen is not safe for concurrent use; split one
// stream per goroutine with Split.
type Gen struct {
	s [4]uint64
}

// New returns a generator deterministically derived from seed.
// Distinct seeds give independent-looking streams.
func New(seed uint64) *Gen {
	var g Gen
	g.Seed(seed)
	return &g
}

// Seed resets the generator state from a single 64-bit seed.
func (g *Gen) Seed(seed uint64) {
	// Expand the seed through SplitMix64 as recommended by the xoshiro
	// authors; guards against the all-zero state.
	s := seed
	for i := range g.s {
		s = SplitMix64(s)
		g.s[i] = s
	}
	if g.s[0]|g.s[1]|g.s[2]|g.s[3] == 0 {
		g.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (g *Gen) Uint64() uint64 {
	result := rotl(g.s[1]*5, 7) * 9
	t := g.s[1] << 17
	g.s[2] ^= g.s[0]
	g.s[3] ^= g.s[1]
	g.s[1] ^= g.s[2]
	g.s[0] ^= g.s[3]
	g.s[2] ^= t
	g.s[3] = rotl(g.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *Gen) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(g.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (g *Gen) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// For the graph-generation workloads a simple high-multiply without
	// rejection would bias at most 1 part in 2^64/n; we keep the rejection
	// loop so property tests over small n see exact uniformity bounds.
	for {
		v := g.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			_ = lo
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform value in [0, 1).
func (g *Gen) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n) as uint32 ids.
func (g *Gen) Perm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples integers in [0, n) with P(k) proportional to 1/(k+1)^s,
// using inverse-CDF over a precomputed table. It models the heavy-tailed
// degree targets of the social-network analogues.
type Zipf struct {
	cdf []float64
	g   *Gen
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(g *Gen, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, g: g}
}

// Next returns the next Zipf-distributed value.
func (z *Zipf) Next() int {
	u := z.g.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
