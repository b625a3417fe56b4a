package analysis

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*100 + 700
	}
	return xs
}

func BenchmarkVariability(b *testing.B) {
	xs := benchSeries(1 << 16) // ≈ 32 s of slots
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Variability(xs, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCurve(b *testing.B) {
	xs := benchSeries(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Curve(xs, 500*time.Microsecond, 12)
	}
}

func BenchmarkCDF(b *testing.B) {
	xs := benchSeries(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCDF(xs)
		c.Quantile(0.5)
	}
}

// kpiTrace returns n float32-widened PCell SINR and RSRQ values in
// trace order: an AR(1) SINR walk in dB and the RSRQ it implies,
// interleaved as a trace reduction reads them.
func kpiTrace(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	sinr := 15.0
	for i := 0; i+1 < n; i += 2 {
		sinr = 15 + 0.98*(sinr-15) + rng.NormFloat64()*1.5
		xs[i] = float64(float32(sinr))
		xs[i+1] = float64(float32(-10.79 - 10*math.Log10(1+math.Pow(10, -sinr/10))))
	}
	return xs
}

// BenchmarkSketchAdd is the read-back's sketch cost: one op is one Add
// of a trace value into the SINR or RSRQ sketch.
func BenchmarkSketchAdd(b *testing.B) {
	xs := kpiTrace(1 << 16)
	sinr, rsrq := NewSketch(), NewSketch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(xs) - 1)
		if j&1 == 0 {
			sinr.Add(xs[j])
		} else {
			rsrq.Add(xs[j])
		}
	}
}
