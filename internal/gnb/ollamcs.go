package gnb

import (
	"math"

	"github.com/midband5g/midband/internal/phy"
)

// OLLA-shifted MCS selection by comparison. The vendor mapping picks the
// highest MCS row i whose efficiency eff_i does not exceed E_cqi·10^(olla/10),
// the reported CQI's efficiency shifted by the outer-loop offset. Both MCS
// tables are strictly increasing in efficiency, so row i is in reach iff
// olla ≥ T_i = 10·log10(eff_i/E_cqi). Thresholds precomputed per (MCS table,
// CQI table, CQI) decide every offset more than ollaMargin from each
// threshold it meets without evaluating 10^(x/10); an offset within the
// margin (or NaN) takes the exact expression, so the pick is bit-identical
// to HighestMCSForEfficiency(E_cqi · phy.DBToLinear(olla)).

// ollaMargin (dB) is about 10^5 times the few-ulp rounding of DBToLinear,
// of the product with E_cqi and of the thresholds' own Log10s.
const ollaMargin = 1e-9

// ollaRows is the row count of the larger MCS table (Table 1, MCS 0–28).
const ollaRows = 29

// ollaMCS holds the thresholds for one (MCS table, CQI table) pair.
type ollaMCS struct {
	table phy.MCSTable
	top   int                     // highest MCS index
	eff   [phy.MaxCQI + 1]float64 // E_cqi, for the exact fallback
	// th[cqi][i] is T_i for rows i ≥ 1 (row 0 is the floor: it is picked
	// even out of reach); NaN where E_cqi is 0 (CQI 0, unknown CQI
	// table), which sends every pick to the exact fallback.
	th [phy.MaxCQI + 1][ollaRows]float64
}

// ollaTables is indexed by MCS table − 1 and CQI table, where CQI table
// index 0 stands for any unknown one. Built once at init, shared by every
// carrier and cell.
var ollaTables [2][3]ollaMCS

func init() {
	for t := phy.MCSTable64QAM; t <= phy.MCSTable256QAM; t++ {
		var logEff [ollaRows]float64
		for i := 1; i <= int(t.MaxIndex()); i++ {
			m, _ := t.Lookup(uint8(i))
			logEff[i] = math.Log10(m.SpectralEfficiency())
		}
		for c := range ollaTables[t-1] {
			o := &ollaTables[t-1][c]
			o.table, o.top = t, int(t.MaxIndex())
			for cqi := range o.eff {
				if c > 0 {
					row, _ := phy.CQITable(c).Lookup(phy.CQI(cqi))
					o.eff[cqi] = row.Efficiency
				}
				logE := math.NaN()
				if o.eff[cqi] > 0 {
					logE = math.Log10(o.eff[cqi])
				}
				for i := 1; i <= o.top; i++ {
					o.th[cqi][i] = 10 * (logEff[i] - logE)
				}
			}
		}
	}
}

// ollaMCSFor returns the shared thresholds for a valid MCS table
// (CarrierConfig.Validate rejects others) and any CQI table.
func ollaMCSFor(t phy.MCSTable, c phy.CQITable) *ollaMCS {
	if c > phy.CQITable256QAM {
		c = 0
	}
	return &ollaTables[t-1][c]
}

// pick returns the MCS for CQI cqi ≤ phy.MaxCQI shifted by ollaDB. It
// equals o.table.HighestMCSForEfficiency(E_cqi · phy.DBToLinear(ollaDB))
// bit for bit.
//
//detlint:zeroalloc
func (o *ollaMCS) pick(cqi phy.CQI, ollaDB float64) uint8 {
	th := &o.th[cqi]
	for i := 1; i <= o.top; i++ {
		d := ollaDB - th[i]
		if d >= ollaMargin {
			continue
		}
		if d <= -ollaMargin {
			return uint8(i - 1)
		}
		// Within the margin of T_i, or NaN: exact evaluation.
		return o.table.HighestMCSForEfficiency(o.eff[cqi] * phy.DBToLinear(ollaDB))
	}
	return uint8(o.top)
}
