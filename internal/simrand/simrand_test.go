package simrand

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The oracle for every test here is math/rand itself: a Rand must hold
// the state rand.NewSource(seed) holds and return what
// rand.New(rand.NewSource(seed)) returns, draw for draw and bit for bit.

// intnArgs are the Intn bounds the oracle tests walk: powers of two
// (Int31n's and Int63n's mask paths), bounds beyond 2³¹−1 (Int63n),
// Int31n/Int63n's switch at 2³¹−1, and bounds just above a power of two,
// where the rejection loop throws away almost half of the draws.
var intnArgs = []int{
	1, 2, 3, 5, 6, 7, 10, 17, 100, 1000, 1 << 10, 1<<16 + 1, 1 << 20, 3 << 28,
	1<<30 - 1, 1 << 30, 1<<30 + 1, 1<<31 - 2, 1<<31 - 1,
	1 << 31, 1<<31 + 1, 1 << 32, 3 << 40, 1<<62 - 1, 1 << 62, 1<<62 + 1,
	math.MaxInt64 - 1, math.MaxInt64,
}

// drawBoth makes draw number step of a generated sequence on both
// generators and fails on the first difference. op picks the method and
// arg, for Intn, the bound: an entry of intnArgs, or a positive bound
// taken from the input bytes.
func drawBoth(t *testing.T, step int, got *Rand, want *rand.Rand, op byte, arg uint64) {
	t.Helper()
	var g, w uint64
	var name string
	switch op % 4 {
	case 0:
		name = "Float64"
		g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
	case 1:
		name = "NormFloat64"
		g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
	case 2:
		name = "ExpFloat64"
		g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
	default:
		n := intnArgs[arg%uint64(len(intnArgs))]
		if op&4 != 0 {
			n = int(arg>>1) | 1
		}
		name = "Intn"
		g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
	}
	if g != w {
		t.Fatalf("draw %d: %s = %#x, math/rand %#x", step, name, g, w)
	}
}

// FuzzSimrand draws a generated method sequence from a generated seed:
// each input byte picks Float64, NormFloat64, ExpFloat64 or Intn (with a
// bound from intnArgs or from the next eight bytes), repeated a few
// times so the ziggurat's wedge and tail branches come up. Every draw
// must equal math/rand's, and so must the register at the end.
func FuzzSimrand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(2024), []byte{1, 1, 1, 1, 2, 2, 2, 2})
	f.Add(int64(-1), []byte{3, 17, 3, 18, 3, 19, 3, 20, 3, 27})
	f.Add(int64(math.MinInt64), []byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 2})
	f.Add(int64(1<<31-1), []byte{3, 15, 7, 1, 0, 0, 0x80, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		src := rand.NewSource(seed)
		got, want := New(seed), rand.New(src)
		step := 0
		for rep := 0; rep < 16; rep++ {
			for k := 0; k < len(ops); k++ {
				op := ops[k]
				var arg uint64
				if op%4 == 3 {
					var b [8]byte
					k += copy(b[:], ops[k+1:])
					arg = binary.LittleEndian.Uint64(b[:])
				}
				drawBoth(t, step, got, want, op, arg)
				step++
			}
		}
		if tap, feed, vec := sourceState(src); got.tap != tap || got.feed != feed || got.vec != vec {
			t.Fatalf("register differs from math/rand's after %d draws", step)
		}
	})
}

// sourceState reads the tap, feed and register of a math/rand source.
func sourceState(src rand.Source) (tap, feed int, vec [rngLen]int64) {
	v := reflect.ValueOf(src).Elem()
	tap, feed = int(v.FieldByName("tap").Int()), int(v.FieldByName("feed").Int())
	regs := v.FieldByName("vec")
	for i := range vec {
		vec[i] = regs.Index(i).Int()
	}
	return tap, feed, vec
}

// TestSimrandSeedState compares the whole generator state after seeding
// with rand.NewSource's, for the seeds where Seed's reduction modulo
// 2³¹−1 has edges: zero and its replacement constant, ±1, ±(2³¹−1) and
// its multiples, and the int64 extremes.
func TestSimrandSeedState(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1), 2 * m, -2 * m, 3 * m, -5 * m,
		m * (math.MaxInt64 / m), -m * (math.MaxInt64 / m), 89482311, -89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 2024, 7,
	}
	for _, seed := range seeds {
		tap, feed, vec := sourceState(rand.NewSource(seed))
		r := New(seed)
		if r.tap != tap || r.feed != feed {
			t.Fatalf("seed %d: tap, feed = %d, %d; math/rand %d, %d", seed, r.tap, r.feed, tap, feed)
		}
		if r.vec != vec {
			t.Fatalf("seed %d: register differs from math/rand's", seed)
		}
	}
}

// schrage is math/rand's seedrand: x·48271 mod (2³¹−1) by Schrage's
// method, in int32.
func schrage(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += 1<<31 - 1
	}
	return x
}

// TestSeedStepFold checks the Mersenne fold against Schrage's method
// over a strided sweep of [1, 2³¹−2], both ends and the neighbours of
// the modulus's divisors included. The counter is an int64 so the loop
// cannot wrap.
func TestSeedStepFold(t *testing.T) {
	const m = 1<<31 - 1
	check := func(x int64) {
		if got, want := seedStep(x), int64(schrage(int32(x))); got != want {
			t.Fatalf("seedStep(%d) = %d, Schrage %d", x, got, want)
		}
	}
	for x := int64(1); x <= m-1; x += 7919 {
		check(x)
	}
	for x := int64(1); x <= 1<<16; x++ {
		check(x)
		check(m - x)
	}
	for _, x := range []int64{44488, 44487, 44489, 48271, m / 48271, m/48271 + 1, 1 << 30, 1<<30 + 1} {
		check(x)
	}
}

// TestSimrandLongStreams draws long uniform, normal and exponential
// streams from the benchmark seeds and a few others, so each ziggurat's
// wedge, base-strip tail and resampling paths are taken many times, and
// compares every draw and the final register with math/rand's.
func TestSimrandLongStreams(t *testing.T) {
	for _, seed := range []int64{2024, 7, 1, -3, math.MaxInt64} {
		got, src := New(seed), rand.NewSource(seed)
		want := rand.New(src)
		tails := 0
		for i := 0; i < 60000; i++ {
			g, w := got.NormFloat64(), want.NormFloat64()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, i, g, w)
			}
			if math.Abs(g) > rn {
				tails++
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
			n := intnArgs[i%len(intnArgs)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		}
		if tails == 0 {
			t.Fatalf("seed %d: no NormFloat64 draw beyond the base strip", seed)
		}
		tap, feed, vec := sourceState(src)
		if got.tap != tap || got.feed != feed || got.vec != vec {
			t.Fatalf("seed %d: register differs from math/rand's after the stream", seed)
		}
	}
}

// TestIntnPanics keeps Intn's contract for n ≤ 0.
func TestIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestSimrandZeroAlloc pins the draws to zero allocations.
func TestSimrandZeroAlloc(t *testing.T) {
	r := New(1)
	sink := 0.0
	if n := testing.AllocsPerRun(100, func() {
		sink += r.Float64() + r.NormFloat64() + r.ExpFloat64() + float64(r.Intn(10)+r.Intn(1<<40+3))
	}); n != 0 {
		t.Fatalf("draws allocate %v times per run", n)
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	b.Run("simrand", func(b *testing.B) {
		r := New(1)
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		_ = s
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		_ = s
	})
}

func BenchmarkNew(b *testing.B) {
	b.Run("simrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rand.NewSource(int64(i))
		}
	})
}
