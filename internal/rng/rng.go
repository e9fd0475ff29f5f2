// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component in this repository (graph generation, gossip
// target selection, workload generation, collusion placement) draws from an
// rng.Source seeded explicitly, so that every experiment in EXPERIMENTS.md is
// exactly reproducible. Sources are splittable: a parent source can derive an
// arbitrary number of statistically independent child streams, one per node,
// so that per-node randomness does not depend on scheduling order.
package rng

import "math/bits"

// Source is a deterministic pseudo-random stream. It implements the subset of
// math/rand's API that the simulator needs, plus Split for deriving
// independent child streams. The generator is SplitMix64 feeding a
// xoshiro256** core: fast, passes BigCrush, and trivially seedable.
type Source struct {
	s0, s1, s2, s3 uint64
}

// Mix64 is the SplitMix64 finaliser: a bijective avalanche of one 64-bit
// word. Source seeding applies it to successive multiples of the golden-ratio
// increment; callers that derive one seed from another (per-subject campaign
// seeds, per-epoch seeds) apply it to their own offset of the base seed.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two sources with the same seed
// produce identical streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.Reseed(seed)
	return s
}

// Reseed rewinds s in place to the start of New(seed)'s stream, so a
// long-lived owner (a gossip engine reused across campaigns) replays a fresh
// stream without allocating a new Source.
func (s *Source) Reseed(seed uint64) {
	const gamma = 0x9e3779b97f4a7c15
	next := func() uint64 {
		seed += gamma
		return Mix64(seed)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = gamma
	}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Split derives a child stream whose future output is independent of the
// parent's. The parent advances by one draw.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// SplitN derives n independent child streams.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
// It is Lemire's nearly-divisionless bounded sampling in two pieces, so a
// hot loop too large to inline Intn can spell out the first and draw the
// same values from the same stream (n as a uint64):
//
//	hi, lo := bits.Mul64(s.Uint64(), n)
//	if lo < n {
//		hi = s.Reject(n, hi, lo)
//	}
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, lo := bits.Mul64(s.Uint64(), uint64(n))
	if lo < uint64(n) {
		hi = s.Reject(uint64(n), hi, lo)
	}
	return int(hi)
}

// Reject finishes a bounded draw in [0, n) whose first product (hi, lo) =
// bits.Mul64(s.Uint64(), n) has lo < n: while lo falls below 2⁶⁴ mod n it
// draws again, and it returns the accepted product's high word. Only about
// n/2⁶⁴ of draws get here.
func (s *Source) Reject(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(s.Uint64(), n)
	}
	return hi
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	return s.PermInto(make([]int, 0, n), n)
}

// PermInto appends a uniform random permutation of [0, n) to dst and returns
// the extended slice. It consumes exactly the same draws as Perm, so the two
// are interchangeable without perturbing a seeded stream, and it allocates
// nothing when dst has capacity for n more elements.
func (s *Source) PermInto(dst []int, n int) []int {
	base := len(dst)
	for i := 0; i < n; i++ {
		j := s.Intn(i + 1)
		dst = append(dst, 0)
		p := dst[base:]
		p[i] = p[j]
		p[j] = i
	}
	return dst
}

// Shuffle permutes xs uniformly in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniform indices from [0, n) in selection order.
// If k >= n it returns a permutation of all n indices.
func (s *Source) Sample(n, k int) []int {
	if k <= 0 {
		return nil
	}
	c := k
	if c > n {
		c = n
	}
	return s.SampleInto(make([]int, 0, c), n, k)
}

// sampleScanMax is the largest k for which SampleInto's duplicate detection
// uses a linear scan over the selection so far; beyond it the O(k²) scan
// loses to a bitset over [0, n) (callers like collusion placement sample k
// proportional to N, not a per-node fan-out).
const sampleScanMax = 64

// SampleInto appends k distinct uniform indices from [0, n), in selection
// order, to dst and returns the extended slice (all n indices, permuted, when
// k >= n). It consumes exactly the same draws as Sample — the two are
// interchangeable mid-stream — and for small k (gossip fan-outs: a handful,
// tens for the largest hubs) it allocates nothing when dst has enough
// capacity, which is what lets the gossip engines resample targets every step
// without touching the heap: duplicate detection is a linear scan over the
// entries appended so far. Large k marks a bitset of n bits instead —
// membership checks draw nothing, so the switch cannot perturb the stream.
func (s *Source) SampleInto(dst []int, n, k int) []int {
	if k >= n {
		return s.PermInto(dst, n)
	}
	if k <= 0 {
		return dst
	}
	// Floyd's algorithm: k distinct values without building [0,n).
	base := len(dst)
	if k > sampleScanMax {
		chosen := make([]uint64, (n+63)/64)
		for j := n - k; j < n; j++ {
			t := s.Intn(j + 1)
			if chosen[t/64]&(1<<(t%64)) != 0 {
				t = j
			}
			chosen[t/64] |= 1 << (t % 64)
			dst = append(dst, t)
		}
		return dst
	}
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		for _, prev := range dst[base:] {
			if prev == t {
				t = j
				break
			}
		}
		dst = append(dst, t)
	}
	return dst
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * sqrt(-2*ln(q)/q)
		}
	}
}

// Beta returns a Beta(a,b) variate via Jöhnk's / gamma-ratio method. It is
// used by the trust estimator to draw peer decency levels.
func (s *Source) Beta(a, b float64) float64 {
	x := s.gamma(a)
	y := s.gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gamma draws a Gamma(shape,1) variate (Marsaglia–Tsang for shape>=1,
// boosting for shape<1).
func (s *Source) gamma(shape float64) float64 {
	if shape < 1 {
		u := s.Float64()
		for u == 0 {
			u = s.Float64()
		}
		return s.gamma(shape+1) * pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * sqrt(d))
	for {
		x := s.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && ln(u) < 0.5*x*x+d*(1-v+ln(v)) {
			return d * v
		}
	}
}
