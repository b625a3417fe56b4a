package gnb

import (
	"math"
	"testing"

	"github.com/midband5g/midband/internal/phy"
)

// referenceOLLAMCS is the vendor CQI→MCS mapping as the slot path wrote
// it before the threshold tables: the CQI's efficiency shifted by the
// OLLA offset in linear terms, then the highest MCS row within reach.
func referenceOLLAMCS(t phy.MCSTable, c phy.CQITable, cqi phy.CQI, ollaDB float64) uint8 {
	row, _ := c.Lookup(cqi)
	return t.HighestMCSForEfficiency(row.Efficiency * phy.DBToLinear(ollaDB))
}

// checkOLLAMCS fails unless the threshold pick equals the reference.
func checkOLLAMCS(t *testing.T, mt phy.MCSTable, ct phy.CQITable, cqi phy.CQI, ollaDB float64) {
	t.Helper()
	if got, want := ollaMCSFor(mt, ct).pick(cqi, ollaDB), referenceOLLAMCS(mt, ct, cqi, ollaDB); got != want {
		t.Fatalf("pick(%v, %v, CQI %d, olla %v [%#x]) = %d, reference %d",
			mt, ct, cqi, ollaDB, math.Float64bits(ollaDB), got, want)
	}
}

// ollaThreshold is T_i = 10·log10(eff_i/E_cqi), the offset at which MCS
// row i comes within reach of the CQI's efficiency.
func ollaThreshold(mt phy.MCSTable, ct phy.CQITable, cqi phy.CQI, row uint8) float64 {
	m, _ := mt.Lookup(row)
	r, _ := ct.Lookup(cqi)
	return 10 * math.Log10(m.SpectralEfficiency()/r.Efficiency)
}

// nudge steps x by k ulps.
func nudge(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

var (
	ollaMCSTables = []phy.MCSTable{phy.MCSTable64QAM, phy.MCSTable256QAM}
	ollaCQITables = []phy.CQITable{phy.CQITable64QAM, phy.CQITable256QAM}
)

// TestOLLAMCSThresholdEdges walks every threshold of the four table pairs:
// the threshold itself and its float neighbours, both margin edges and
// their neighbours, and points a little further out, plus the offsets
// the OLLA loop actually visits, NaN and ±Inf for every CQI (0 included)
// and an unknown CQI table.
func TestOLLAMCSThresholdEdges(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -6, 3, -1e3, 1e3, 1e300, -1e300}
	for olla := -6.0; olla <= 3; olla += 0.05 {
		specials = append(specials, olla)
	}
	for _, mt := range ollaMCSTables {
		for _, ct := range ollaCQITables {
			for cqi := phy.CQI(0); cqi <= phy.MaxCQI; cqi++ {
				for _, olla := range specials {
					checkOLLAMCS(t, mt, ct, cqi, olla)
				}
				if cqi == 0 {
					continue
				}
				o := ollaMCSFor(mt, ct)
				for row := uint8(1); row <= mt.MaxIndex(); row++ {
					th := ollaThreshold(mt, ct, cqi, row)
					for k := -4; k <= 4; k++ {
						checkOLLAMCS(t, mt, ct, cqi, nudge(th, k))
					}
					for _, edge := range []float64{o.th[cqi][row] - ollaMargin, o.th[cqi][row] + ollaMargin} {
						for k := -1; k <= 1; k++ {
							checkOLLAMCS(t, mt, ct, cqi, nudge(edge, k))
						}
					}
					for _, d := range []float64{-1e-3, -1e-6, -1e-8, 1e-8, 1e-6, 1e-3} {
						checkOLLAMCS(t, mt, ct, cqi, th+d)
					}
				}
			}
		}
	}
	for _, olla := range specials {
		for cqi := phy.CQI(0); cqi <= phy.MaxCQI; cqi++ {
			checkOLLAMCS(t, phy.MCSTable256QAM, phy.CQITable(0), cqi, olla)
			checkOLLAMCS(t, phy.MCSTable64QAM, phy.CQITable(7), cqi, olla)
		}
	}
}

// FuzzOLLAMCS checks the threshold pick against the reference for both
// MCS tables, any CQI table (0 or ≥ 3 is unknown), any CQI 0–15 and two
// offsets per input: olla as given, NaN and ±Inf included, and the
// threshold of MCS row `row` stepped by `ulps` ulps, so the mutator
// walks every decision boundary ulp by ulp.
func FuzzOLLAMCS(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(15), uint8(27), int8(0), 0.0)
	f.Add(uint8(1), uint8(1), uint8(9), uint8(14), int8(-1), -6.0)
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), int8(1), 3.0)
	f.Add(uint8(2), uint8(1), uint8(7), uint8(12), int8(1), -2.35)
	f.Add(uint8(2), uint8(2), uint8(0), uint8(3), int8(0), math.NaN())
	f.Add(uint8(1), uint8(2), uint8(12), uint8(20), int8(-1), math.Inf(1))
	f.Add(uint8(2), uint8(1), uint8(4), uint8(9), int8(0), math.Inf(-1))
	f.Add(uint8(1), uint8(3), uint8(5), uint8(5), int8(0), 1.0)
	f.Fuzz(func(t *testing.T, mt, ct, cqi, row uint8, ulps int8, olla float64) {
		mcsT, cqiT := phy.MCSTable(1+mt%2), phy.CQITable(ct%4)
		q := phy.CQI(cqi % (uint8(phy.MaxCQI) + 1))
		checkOLLAMCS(t, mcsT, cqiT, q, olla)
		if q > 0 && cqiT >= 1 && cqiT <= 2 {
			r := 1 + row%mcsT.MaxIndex()
			checkOLLAMCS(t, mcsT, cqiT, q, nudge(ollaThreshold(mcsT, cqiT, q, r), int(ulps)))
		}
	})
}
