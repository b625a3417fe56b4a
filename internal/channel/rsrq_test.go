package channel

import (
	"math"
	"testing"
)

// rsrqMidpointInputs returns SINRs whose exact RSRQ lies next to a
// float32 rounding midpoint, where the kernel's straddle check is what
// keeps it exact: for float32 RSRQ values across the grid's range, g is
// inverted at the midpoint to the next float32, and a few neighbours
// either side are taken so the exact value lands on both sides of it.
func rsrqMidpointInputs() []float64 {
	var xs []float64
	for _, v := range []float32{-19.4, -19, -17.5, -16.01, -15.99, -14, -12, -11.5, -11, -10.9, -10.8, -10.7901} {
		m := (float64(v) + float64(math.Nextafter32(v, 0))) / 2
		x := -10 * math.Log10(math.Pow(10, (-10.79-m)/10)-1)
		step := 1e-12 * (1 + math.Pow(10, x/10)) // moves g by about 1e-12 dB
		for j := -4; j <= 4; j++ {
			xs = append(xs, x+float64(j)*step)
		}
	}
	return xs
}

// FuzzRSRQdB32 pins Sample.RSRQdB32 to float32(Sample.RSRQdB()) bit for
// bit. Seeds: both sides of every table node, inputs next to float32
// rounding midpoints, the grid's ends, and NaN and ±Inf.
func FuzzRSRQdB32(f *testing.F) {
	for i := 0; i <= rsrqSpan; i++ {
		x := rsrqLoDB + float64(i)*rsrqH
		f.Add(math.Nextafter(x, math.Inf(-1)))
		f.Add(x)
		f.Add(math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range rsrqMidpointInputs() {
		f.Add(x)
	}
	for _, x := range []float64{-8, 68, -12, 80, -20, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		s := Sample{rsrqSINRdB: x}
		got, want := s.RSRQdB32(), float32(s.RSRQdB())
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("RSRQdB32(%v) = %v (%#x), want %v (%#x)", x, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	})
}

// TestRSRQdB32ErrorBound sweeps the grid densely: the interpolant stays
// within slack/8 of the exact float64 RSRQ (the analytic bound is
// 6.07e-11 dB, slack/16), the float32 result is exact everywhere, and
// fewer than 1% of inputs fall back to the exact expression.
func TestRSRQdB32ErrorBound(t *testing.T) {
	const perDB = 1 << 12
	n, fallbacks := 0, 0
	worst := 0.0
	for k := 0; k < int(rsrqHiDB-rsrqLoDB)*perDB; k++ {
		x := rsrqLoDB + (float64(k)+0.37)/perDB
		exact := RSRQFromSINR(x)
		y, ok := rsrqHermite(x)
		if !ok {
			t.Fatalf("x = %v: outside the grid", x)
		}
		if e := math.Abs(y - exact); e > worst {
			worst = e
		}
		if got, want := rsrq32(x), float32(exact); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("rsrq32(%v) = %v, want %v", x, got, want)
		}
		if float32(y-rsrqSlack) != float32(y+rsrqSlack) {
			fallbacks++
		}
		n++
	}
	if worst > rsrqSlack/8 {
		t.Errorf("max |interpolant − exact| = %.3g dB, want ≤ slack/8 = %.3g dB", worst, rsrqSlack/8)
	}
	if frac := float64(fallbacks) / float64(n); frac >= 0.01 {
		t.Errorf("%d of %d inputs (%.2f%%) fall back to the exact path, want < 1%%", fallbacks, n, 100*frac)
	}
	t.Logf("max error %.3g dB over %d inputs, %.3f%% fallbacks", worst, n, 100*float64(fallbacks)/float64(n))
}

var rsrq32Sink float32

func BenchmarkRSRQdB32(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -5 + 40*float64(i)/float64(len(xs))
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rsrq32Sink = float32(RSRQFromSINR(xs[i&1023]))
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rsrq32Sink = rsrq32(xs[i&1023])
		}
	})
}
