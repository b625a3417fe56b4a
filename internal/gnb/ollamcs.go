package gnb

import (
	"math"
	"sync"

	"github.com/midband5g/midband/internal/phy"
)

// OLLA-shifted MCS selection by table. The vendor mapping is
// HighestMCSForEfficiency(E_cqi·10^(olla/10)): the reported CQI's
// efficiency shifted by the outer-loop offset, then the last row of the
// longest prefix of MCS rows within reach, row 0 always included. Row i
// is in reach iff olla ≥ T_i = 10·log10(eff_i/E_cqi), so the pick is the
// row before the first threshold above olla. Table 1 is not monotone in
// efficiency (MCS 17, 64QAM at 2.5664 b/RE, sits below MCS 16, 16QAM at
// 2.5703), so a row past the first one out of reach can still be in
// reach: the first-failing-row rule, not a search over sorted
// thresholds, is the mapping.
//
// Thresholds precomputed per (MCS table, CQI table, CQI) decide every
// offset more than ollaMargin from each threshold it meets without
// evaluating 10^(x/10); an offset within the margin (or NaN) takes the
// exact expression, so the pick is bit-identical to the vendor mapping.
// A bucket index over the offsets decode can reach replaces the scan
// from row 1 with one read for most offsets, and with a scan from the
// first row that bucket cannot skip for the rest.

// ollaMargin (dB) is about 10^5 times the few-ulp rounding of DBToLinear,
// of the product with E_cqi and of the thresholds' own Log10s.
const ollaMargin = 1e-9

// ollaRows is the row count of the larger MCS table (Table 1, MCS 0–28).
const ollaRows = 29

const (
	// ollaLoDB and ollaHiDB bound the offset; decode clamps it to them.
	ollaLoDB = -6
	ollaHiDB = 3
	// ollaBucketsPerDB is a power of two, so every bucket edge
	// ollaLoDB + b/ollaBucketsPerDB and the index scaling are exact.
	ollaBucketsPerDB = 32
	// ollaBuckets covers [ollaLoDB, ollaHiDB]; the last bucket holds
	// ollaHiDB alone.
	ollaBuckets = (ollaHiDB-ollaLoDB)*ollaBucketsPerDB + 1
	// ollaGuard (dB) widens each bucket on both sides when the index is
	// built. The index rounds ollaDB−ollaLoDB once, by at most 2^-50 dB,
	// so an offset lands at most that far outside its bucket.
	ollaGuard = 1e-12
	// ollaScan flags an index entry that holds the first row to scan
	// rather than the decided MCS (MCS indices stay below it).
	ollaScan = 0x80
)

// ollaMCS holds the thresholds and bucket index for one (MCS table, CQI
// table) pair.
type ollaMCS struct {
	table phy.MCSTable
	top   int                     // highest MCS index
	eff   [phy.MaxCQI + 1]float64 // E_cqi, for the exact fallback
	// th[cqi][i] is T_i for rows i ≥ 1 (row 0 is the floor: it is picked
	// even out of reach); NaN where E_cqi is 0 (CQI 0, unknown CQI
	// table), which sends every pick to the exact fallback.
	th [phy.MaxCQI + 1][ollaRows]float64
	// idx[cqi][b] serves offsets in [ollaLoDB + b/ollaBucketsPerDB,
	// ollaLoDB + (b+1)/ollaBucketsPerDB): the MCS the scan returns for
	// every one of them, or ollaScan | the first row the scan must test
	// (every earlier row is in reach by more than the margin throughout
	// the bucket).
	idx [phy.MaxCQI + 1][ollaBuckets]uint8
}

// ollaTables is indexed by MCS table − 1 and CQI table, where CQI table
// index 0 stands for any unknown one. Each pair is built on first use and
// shared by every carrier and cell.
var (
	ollaTables [2][3]ollaMCS
	ollaOnce   [2][3]sync.Once
)

// ollaMCSFor returns the shared tables for a valid MCS table
// (CarrierConfig.Validate rejects others) and any CQI table.
func ollaMCSFor(t phy.MCSTable, c phy.CQITable) *ollaMCS {
	if c > phy.CQITable256QAM {
		c = 0
	}
	o := &ollaTables[t-1][c]
	ollaOnce[t-1][c].Do(func() { o.build(t, c) })
	return o
}

// build fills the thresholds and the bucket index for MCS table t and CQI
// table c (0 for an unknown one).
//
// The index is exact because float subtraction is monotone: for a row
// threshold T and offsets x ≤ y, x−T ≤ y−T as computed. So a row the
// scan skips at a bucket's guarded lower edge (edge − T ≥ ollaMargin) is
// skipped for every offset in the bucket, and the row it stops at
// decides the whole bucket when the guarded upper edge already fails it
// by the margin. The first row not skipped never moves down as the
// buckets ascend, so one pointer walks the rows: O(buckets + rows) per
// CQI.
func (o *ollaMCS) build(t phy.MCSTable, c phy.CQITable) {
	var logEff [ollaRows]float64
	for i := 1; i <= int(t.MaxIndex()); i++ {
		m, _ := t.Lookup(uint8(i))
		logEff[i] = math.Log10(m.SpectralEfficiency())
	}
	o.table, o.top = t, int(t.MaxIndex())
	for cqi := range o.eff {
		if c > 0 {
			row, _ := c.Lookup(phy.CQI(cqi))
			o.eff[cqi] = row.Efficiency
		}
		logE := math.NaN()
		if o.eff[cqi] > 0 {
			logE = math.Log10(o.eff[cqi])
		}
		th := &o.th[cqi]
		for i := 1; i <= o.top; i++ {
			th[i] = 10 * (logEff[i] - logE)
		}
		i := 1
		for b := range o.idx[cqi] {
			lo := ollaLoDB + float64(b)/ollaBucketsPerDB
			hi := lo + 1.0/ollaBucketsPerDB
			for i <= o.top && (lo-ollaGuard)-th[i] >= ollaMargin {
				i++
			}
			switch {
			case i > o.top:
				o.idx[cqi][b] = uint8(o.top)
			case (hi+ollaGuard)-th[i] <= -ollaMargin:
				o.idx[cqi][b] = uint8(i - 1)
			default:
				o.idx[cqi][b] = ollaScan | uint8(i)
			}
		}
	}
}

// pick returns the MCS for CQI cqi ≤ phy.MaxCQI shifted by ollaDB. It
// equals o.table.HighestMCSForEfficiency(E_cqi · phy.DBToLinear(ollaDB))
// bit for bit. Offsets outside [ollaLoDB, ollaHiDB] and NaN scan from
// row 1.
//
//detlint:zeroalloc
func (o *ollaMCS) pick(cqi phy.CQI, ollaDB float64) uint8 {
	i := 1
	if ollaDB >= ollaLoDB && ollaDB <= ollaHiDB {
		e := o.idx[cqi][int((ollaDB-ollaLoDB)*ollaBucketsPerDB)]
		if e&ollaScan == 0 {
			return e
		}
		i = int(e &^ ollaScan)
	}
	th := &o.th[cqi]
	for ; i <= o.top; i++ {
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
