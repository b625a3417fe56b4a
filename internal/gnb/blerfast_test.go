package gnb

import (
	"math"
	"testing"
)

// checkBLERAck fails unless the table-accelerated ACK decision equals
// the exact comparison against the BLER sigmoid.
func checkBLERAck(t *testing.T, draw, sinrDB, reqSINRdB float64) {
	t.Helper()
	if got, want := blerAck(draw, sinrDB, reqSINRdB), draw >= bler(sinrDB, reqSINRdB); got != want {
		t.Fatalf("blerAck(%v, %v, %v) = %v, exact comparison %v", draw, sinrDB, reqSINRdB, got, want)
	}
}

// TestBLERAckBinEdges walks every bin edge of the bounds table, each
// edge's float neighbours and both tails, with draws on and next to the
// exact probability and the adjacent bins' bounds — exactly where a bin
// index off by one or a bound on the wrong side would flip an ACK.
func TestBLERAckBinEdges(t *testing.T) {
	down, up := math.Inf(-1), math.Inf(1)
	w := (blerXMax - blerXMin) / blerBins
	margins := []float64{-1e3, -20, 20, 1e3, down, up, math.NaN()}
	for _, tail := range []float64{blerXMin, blerXMax} {
		for _, d := range []float64{-1e-3, -1e-9, 0, 1e-9, 1e-3} {
			margins = append(margins, tail+d)
		}
	}
	for i := 0; i <= blerBins; i++ {
		z := blerXMin + float64(i)*w
		margins = append(margins, math.Nextafter(z, down), z, math.Nextafter(z, up))
	}
	for _, z := range margins {
		p := bler(z, 0)
		draws := []float64{0, 1, math.NaN(), p, math.Nextafter(p, down), math.Nextafter(p, up),
			blerTailLo, blerTailHi}
		if i := int((z - blerXMin) / w); i >= 0 && i <= blerBins {
			for _, j := range []int{i - 1, i} {
				if j >= 0 && j < blerBins {
					for _, b := range []float64{blerLo[j], blerHi[j]} {
						draws = append(draws, math.Nextafter(b, down), b, math.Nextafter(b, up))
					}
				}
			}
		}
		for _, draw := range draws {
			for _, req := range []float64{0, -3.25, 17.9} {
				checkBLERAck(t, draw, z+req, req)
			}
		}
	}
}

// FuzzBLERAck checks the ACK decision against the exact sigmoid on
// arbitrary float64 bit patterns, NaN and ±Inf margins included. The
// mutator's integer steps on the bits walk the inputs ulp by ulp, so the
// bin-edge seeds explore the table's decision boundaries.
func FuzzBLERAck(f *testing.F) {
	bits := math.Float64bits
	w := (blerXMax - blerXMin) / blerBins
	edge := blerXMin + 512*w
	f.Add(bits(0.5), bits(3), bits(0))
	f.Add(bits(bler(edge, 0)), bits(edge), bits(0))
	f.Add(bits(blerHi[511]), bits(edge+7.5), bits(7.5))
	f.Add(bits(blerTailLo), bits(blerXMin), bits(0))
	f.Add(bits(blerTailHi), bits(blerXMax), bits(0))
	f.Add(bits(0.5), bits(math.NaN()), bits(0))
	f.Add(bits(0.5), bits(math.Inf(1)), bits(math.Inf(1)))
	f.Add(bits(0.5), bits(math.Inf(-1)), bits(4))
	f.Fuzz(func(t *testing.T, draw, sinr, req uint64) {
		checkBLERAck(t, math.Float64frombits(draw), math.Float64frombits(sinr), math.Float64frombits(req))
	})
}
