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

// ollaBucketEdge is the lower edge of bucket b of the index (b =
// ollaBuckets is the upper edge of the last bucket).
func ollaBucketEdge(b int) float64 {
	return ollaLoDB + float64(b)/ollaBucketsPerDB
}

// TestOLLAMCSThresholdEdges walks every threshold of the four table pairs:
// the threshold itself and its float neighbours, both margin edges and
// their neighbours, and points a little further out; every bucket edge
// of the index and its float neighbours to 4 ulps; plus the offsets the
// OLLA loop actually visits, NaN and ±Inf for every CQI (0 included) and
// an unknown CQI table.
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
				for b := 0; b <= ollaBuckets; b++ {
					for k := -4; k <= 4; k++ {
						checkOLLAMCS(t, mt, ct, cqi, nudge(ollaBucketEdge(b), k))
					}
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

// TestOLLAMCSTable1Gap checks the pick inside Table 1's non-monotone gap,
// where the CQI's shifted efficiency lies in [2.5664, 2.5703): MCS 17 is
// within reach there but MCS 16 is not, so the mapping, and the pick,
// stop at 15. Every CQI whose gap meets the offset range is checked at
// points across it, through the index and the scan.
func TestOLLAMCSTable1Gap(t *testing.T) {
	checked := 0
	for _, ct := range ollaCQITables {
		for cqi := phy.CQI(1); cqi <= phy.MaxCQI; cqi++ {
			lo := ollaThreshold(phy.MCSTable64QAM, ct, cqi, 17)
			hi := ollaThreshold(phy.MCSTable64QAM, ct, cqi, 16)
			for k := 1; k < 16; k++ {
				olla := lo + (hi-lo)*float64(k)/16
				if olla < ollaLoDB || olla > ollaHiDB {
					continue
				}
				if got := ollaMCSFor(phy.MCSTable64QAM, ct).pick(cqi, olla); got != 15 {
					t.Fatalf("pick(qam64, %v, CQI %d, olla %v) = %d in the MCS 16/17 gap, want 15", ct, cqi, olla, got)
				}
				checkOLLAMCS(t, phy.MCSTable64QAM, ct, cqi, olla)
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no CQI puts the gap in the offset range")
	}
}

// FuzzOLLAMCS checks the threshold pick against the reference for both
// MCS tables, any CQI table (0 or ≥ 3 is unknown), any CQI 0–15 and two
// offsets per input: olla as given, NaN and ±Inf included, and the
// threshold of MCS row `row` stepped by `ulps` ulps, so the mutator
// walks every decision boundary ulp by ulp. It also checks bucket edge
// `edge` of the index (modulo the edge count) ± 4 ulps for the four table
// pairs and every CQI, and the seeds name every edge.
func FuzzOLLAMCS(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(15), uint8(27), int8(0), 0.0, uint16(192))
	f.Add(uint8(1), uint8(1), uint8(9), uint8(14), int8(-1), -6.0, uint16(0))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), int8(1), 3.0, uint16(288))
	f.Add(uint8(2), uint8(1), uint8(7), uint8(12), int8(1), -2.35, uint16(117))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(3), int8(0), math.NaN(), uint16(289))
	f.Add(uint8(1), uint8(2), uint8(12), uint8(20), int8(-1), math.Inf(1), uint16(1))
	f.Add(uint8(2), uint8(1), uint8(4), uint8(9), int8(0), math.Inf(-1), uint16(287))
	f.Add(uint8(1), uint8(3), uint8(5), uint8(5), int8(0), 1.0, uint16(224))
	for b := 0; b <= ollaBuckets; b++ {
		f.Add(uint8(1+b%2), uint8(1+b/2%2), uint8(b%16), uint8(1+b%28), int8(b%9-4), ollaBucketEdge(b), uint16(b))
	}
	f.Fuzz(func(t *testing.T, mt, ct, cqi, row uint8, ulps int8, olla float64, edge uint16) {
		mcsT, cqiT := phy.MCSTable(1+mt%2), phy.CQITable(ct%4)
		q := phy.CQI(cqi % (uint8(phy.MaxCQI) + 1))
		checkOLLAMCS(t, mcsT, cqiT, q, olla)
		if q > 0 && cqiT >= 1 && cqiT <= 2 {
			r := 1 + row%mcsT.MaxIndex()
			checkOLLAMCS(t, mcsT, cqiT, q, nudge(ollaThreshold(mcsT, cqiT, q, r), int(ulps)))
		}
		e := ollaBucketEdge(int(edge) % (ollaBuckets + 1))
		for _, mt := range ollaMCSTables {
			for _, ct := range ollaCQITables {
				for q := phy.CQI(0); q <= phy.MaxCQI; q++ {
					for k := -4; k <= 4; k++ {
						checkOLLAMCS(t, mt, ct, q, nudge(e, k))
					}
				}
			}
		}
	})
}
