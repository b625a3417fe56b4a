package phy

import (
	"math"
	"math/rand"
	"testing"
)

// checkDBToLinear fails unless DBToLinear(x) has the bits of
// math.Pow(10, x/10), the expression it replaces.
func checkDBToLinear(t *testing.T, x float64) {
	t.Helper()
	got, want := DBToLinear(x), math.Pow(10, x/10)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("DBToLinear(%v) [bits %#x] = %v [%#x], want %v [%#x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDBToLinearEdges covers pow's special cases, the edges of the fast
// path and the values the simulator converts every slot.
func TestDBToLinearEdges(t *testing.T) {
	edge := float64(10 * maxFastExp10)
	xs := []float64{
		0, math.Copysign(0, -1), 10, -10, 5, -5, 20, -20, 15, -15,
		math.NaN(), math.Inf(1), math.Inf(-1),
		edge, -edge, math.Nextafter(edge, 0), math.Nextafter(-edge, 0),
		math.Nextafter(edge, math.Inf(1)), math.Nextafter(-edge, math.Inf(-1)),
		5110, -5110, 3080, -3080, 3090, -3090, 3300, -3300, 4000, -4000,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e-300, -1e-300, 4.9999999999999, 5.0000000000001, 15.000000000001,
		// dB and dBm values of the link budget.
		-121.4, -104.6, -95, -80, -3, 3, 0.5, -0.5, 1e-9, 2.5, 7.5,
	}
	for i := -2560; i <= 2560; i++ {
		xs = append(xs, float64(i)/8)
	}
	for _, x := range xs {
		checkDBToLinear(t, x)
	}
}

// TestDBToLinearRandom compares the kernel with math.Pow over the whole
// fast-path range and beyond it.
func TestDBToLinearRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		checkDBToLinear(t, (rng.Float64()*2-1)*4000)
		checkDBToLinear(t, (rng.Float64()*2-1)*60)
		checkDBToLinear(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzDBToLinear compares the kernel with math.Pow(10, x/10) on
// arbitrary float64 bit patterns. A Go release that changes math.pow
// trips it.
func FuzzDBToLinear(f *testing.F) {
	for _, x := range []float64{0, 5, -5, 10, -121.4, 3000, -3000, 3000.0000001, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkDBToLinear(t, math.Float64frombits(bits))
	})
}

var sinkFloat float64

func BenchmarkDBToLinear(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = -140 + 120*rng.Float64()
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFloat += DBToLinear(xs[i&1023])
		}
	})
	b.Run("math.Pow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFloat += math.Pow(10, xs[i&1023]/10)
		}
	})
}
