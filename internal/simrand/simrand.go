// Package simrand is the simulator's one random number generator. A Rand
// produces the value streams of math/rand's v1 generator,
// rand.New(rand.NewSource(seed)), draw for draw and bit for bit, so every
// seed keeps the sequence it has always had. Go pins those streams in
// math/rand/regress_test.go; the oracle tests in this package pin this
// copy to them.
//
// The difference is the call path. math/rand reaches its additive lagged
// Fibonacci register through the Source interface (Rand.NormFloat64 →
// Uint32 → Int63 → Source.Int63), so nothing inlines; here the register
// sits in the Rand, its step inlines into every draw, and Float64 inlines
// into its callers.
//
// Only the draws the simulator makes are provided: Float64, NormFloat64,
// ExpFloat64 and Intn.
package simrand

import "math"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Rand is the Mitchell–Reeds additive lagged Fibonacci generator behind
// math/rand.NewSource. Not safe for concurrent use.
type Rand struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

// New returns a generator seeded exactly as rand.NewSource(seed) is.
func New(seed int64) *Rand {
	r := new(Rand)
	r.seed(seed)
	return r
}

// seedStep is x·48271 mod (2³¹−1), math/rand's seedrand, for x in
// [1, 2³¹−2]. It folds the product at the Mersenne modulus instead of
// using Schrage's divisions; both are exact on that range, and the
// result stays in it.
func seedStep(x int64) int64 {
	t := x * 48271
	r := t&int32max + t>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// seed is math/rand's rngSource.Seed.
func (r *Rand) seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := seed
	for i := -20; i < rngLen; i++ {
		x = seedStep(x)
		if i >= 0 {
			u := x << 40
			x = seedStep(x)
			u ^= x << 20
			x = seedStep(x)
			u ^= x
			u ^= rngCooked[i]
			r.vec[i] = u
		}
	}
}

// uint64 advances the register one step: rngSource.Uint64.
//
//detlint:zeroalloc
func (r *Rand) uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	r.tap, r.feed = tap, feed
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return uint64(x)
}

// int63 is Rand.Int63.
//
//detlint:zeroalloc
func (r *Rand) int63() int64 { return int64(r.uint64() & rngMask) }

// uint32 is Rand.Uint32.
//
//detlint:zeroalloc
func (r *Rand) uint32() uint32 { return uint32(r.int63() >> 31) }

// Float64 returns, as a float64, a pseudo-random number in [0.0,1.0):
// Rand.Float64.
//
//detlint:zeroalloc
func (r *Rand) Float64() float64 {
	for {
		// The quotient reaches 1 only when int63 rounds up to 2⁶³, about
		// once in 2⁵⁴ draws; math/rand resamples then.
		if f := float64(r.int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns, as an int, a non-negative pseudo-random number in [0,n):
// Rand.Intn, with Go 1's Int31n and Int63n. It panics if n <= 0.
//
//detlint:zeroalloc
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simrand: invalid argument to Intn")
	}
	if n <= int32max {
		return int(r.int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// int31n is Rand.Int31n for n > 0.
func (r *Rand) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is a power of two: mask
		return int32(r.int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.int63() >> 32)
	for v > max {
		v = int32(r.int63() >> 32)
	}
	return v % n
}

// int63n is Rand.Int63n for n > 0.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is a power of two: mask
		return r.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}

// The ziggurat samplers below follow math/rand's normal.go and exp.go
// ("The Ziggurat Method for Generating Random Variables", Marsaglia &
// Tsang, 2000), draw for draw. The first rectangle test, taken on more
// than 99% of draws, is all the exported methods do; the wedge and tail
// branches and the loop back to a fresh draw live in normSlow and
// expSlow.

const (
	rn = 3.442619855899
	re = 7.69711747013104972
)

// NormFloat64 returns a standard normally distributed float64:
// Rand.NormFloat64.
//
//detlint:zeroalloc
func (r *Rand) NormFloat64() float64 {
	j := int32(r.uint32()) // possibly negative
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		return x
	}
	return r.normSlow(j, x)
}

// normSlow finishes a NormFloat64 draw whose first rectangle test
// failed for the 32-bit draw j (x = j·wn[j&0x7F]).
func (r *Rand) normSlow(j int32, x float64) float64 {
	for {
		i := j & 0x7F
		if i == 0 {
			// The base strip's tail.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(r.uint32())
		i = j & 0x7F
		x = float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1:
// Rand.ExpFloat64.
//
//detlint:zeroalloc
func (r *Rand) ExpFloat64() float64 {
	j := r.uint32()
	i := j & 0xFF
	x := float64(j) * float64(we[i])
	if j < ke[i] {
		return x
	}
	return r.expSlow(j, x)
}

// expSlow finishes an ExpFloat64 draw whose first rectangle test failed
// for the 32-bit draw j (x = j·we[j&0xFF]).
func (r *Rand) expSlow(j uint32, x float64) float64 {
	for {
		i := j & 0xFF
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
		j = r.uint32()
		i = j & 0xFF
		x = float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
	}
}
