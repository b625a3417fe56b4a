package phy

import (
	"fmt"
	"math"
)

// MCSTable identifies one of the standardized PDSCH MCS index tables
// (TS 38.214 §5.1.3.1). Which table a slot uses is signaled by the DCI
// format: DCI 1_1 selects Table 2 (up to 256QAM), DCI 1_0 selects Table 1
// (up to 64QAM) — the mechanism §3.1 of the paper describes.
type MCSTable uint8

const (
	// MCSTable64QAM is TS 38.214 Table 5.1.3.1-1 (maximum order 64QAM).
	MCSTable64QAM MCSTable = 1
	// MCSTable256QAM is TS 38.214 Table 5.1.3.1-2 (maximum order 256QAM).
	MCSTable256QAM MCSTable = 2
)

func (t MCSTable) String() string {
	switch t {
	case MCSTable64QAM:
		return "qam64"
	case MCSTable256QAM:
		return "qam256"
	default:
		return fmt.Sprintf("MCSTable(%d)", uint8(t))
	}
}

// MCS is one row of an MCS index table: a modulation order and a target code
// rate (expressed ×1024 as in the spec).
type MCS struct {
	Index      uint8
	Modulation Modulation
	// CodeRate1024 is the target code rate R × 1024. A value of 948
	// corresponds to the maximum rate R_max = 948/1024 used in the
	// TS 38.306 peak-rate formula.
	CodeRate1024 float64
}

// CodeRate returns the target code rate R as a fraction.
func (m MCS) CodeRate() float64 { return m.CodeRate1024 / 1024 }

// SpectralEfficiency returns Qm·R in bits per resource element.
func (m MCS) SpectralEfficiency() float64 {
	return float64(m.Modulation.BitsPerSymbol()) * m.CodeRate()
}

// RequiredSINRdB returns the approximate SINR (dB) at which this MCS reaches
// roughly its target block error rate on an AWGN channel, derived from the
// Shannon bound with an implementation margin. The link-level abstraction in
// internal/gnb uses it as the center of its BLER curve.
func (m MCS) RequiredSINRdB() float64 {
	const implMarginDB = 1.5 // gap to capacity of practical LDPC + estimation loss
	se := m.SpectralEfficiency()
	return 10*math.Log10(math.Pow(2, se)-1) + implMarginDB
}

// mcsTable1 is TS 38.214 Table 5.1.3.1-1 (PDSCH, max 64QAM), indices 0–28.
var mcsTable1 = []MCS{
	{0, QPSK, 120}, {1, QPSK, 157}, {2, QPSK, 193}, {3, QPSK, 251},
	{4, QPSK, 308}, {5, QPSK, 379}, {6, QPSK, 449}, {7, QPSK, 526},
	{8, QPSK, 602}, {9, QPSK, 679},
	{10, QAM16, 340}, {11, QAM16, 378}, {12, QAM16, 434}, {13, QAM16, 490},
	{14, QAM16, 553}, {15, QAM16, 616}, {16, QAM16, 658},
	{17, QAM64, 438}, {18, QAM64, 466}, {19, QAM64, 517}, {20, QAM64, 567},
	{21, QAM64, 616}, {22, QAM64, 666}, {23, QAM64, 719}, {24, QAM64, 772},
	{25, QAM64, 822}, {26, QAM64, 873}, {27, QAM64, 910}, {28, QAM64, 948},
}

// mcsTable2 is TS 38.214 Table 5.1.3.1-2 (PDSCH, max 256QAM), indices 0–27.
var mcsTable2 = []MCS{
	{0, QPSK, 120}, {1, QPSK, 193}, {2, QPSK, 308}, {3, QPSK, 449},
	{4, QPSK, 602},
	{5, QAM16, 378}, {6, QAM16, 434}, {7, QAM16, 490}, {8, QAM16, 553},
	{9, QAM16, 616}, {10, QAM16, 658},
	{11, QAM64, 466}, {12, QAM64, 517}, {13, QAM64, 567}, {14, QAM64, 616},
	{15, QAM64, 666}, {16, QAM64, 719}, {17, QAM64, 772}, {18, QAM64, 822},
	{19, QAM64, 873},
	{20, QAM256, 682.5}, {21, QAM256, 711}, {22, QAM256, 754},
	{23, QAM256, 797}, {24, QAM256, 841}, {25, QAM256, 885},
	{26, QAM256, 916.5}, {27, QAM256, 948},
}

// Lookup returns the MCS row for index i in table t.
func (t MCSTable) Lookup(i uint8) (MCS, error) {
	rows, err := t.rows()
	if err != nil {
		return MCS{}, err
	}
	if int(i) >= len(rows) {
		return MCS{}, fmt.Errorf("phy: MCS index %d out of range for table %v (max %d)", i, t, len(rows)-1)
	}
	return rows[i], nil
}

// MaxIndex returns the largest valid MCS index of the table (28 for Table 1,
// 27 for Table 2).
func (t MCSTable) MaxIndex() uint8 {
	rows, err := t.rows()
	if err != nil {
		return 0
	}
	return uint8(len(rows) - 1)
}

// MaxModulation returns the highest modulation order the table reaches.
func (t MCSTable) MaxModulation() Modulation {
	if t == MCSTable256QAM {
		return QAM256
	}
	return QAM64
}

func (t MCSTable) rows() ([]MCS, error) {
	switch t {
	case MCSTable64QAM:
		return mcsTable1, nil
	case MCSTable256QAM:
		return mcsTable2, nil
	default:
		return nil, fmt.Errorf("phy: unknown MCS table %d", uint8(t))
	}
}

// HighestMCSForEfficiency returns the last row of the longest prefix of
// table t whose spectral efficiencies all lie within se bits per RE: it
// scans up from MCS 0 and stops at the first row above se. It returns
// index 0 if even the lowest MCS exceeds se. Table 1 is not monotone in
// efficiency (MCS 17, 2.5664 b/RE, sits below MCS 16, 2.5703), so for se
// in [2.5664, 2.5703) it returns 15 although MCS 17 is within se; the
// simulator's outputs depend on that rule. The scan runs over the
// efficiencies precomputed at init (row index equals MCS index in both
// tables).
func (t MCSTable) HighestMCSForEfficiency(se float64) uint8 {
	d := t.derived()
	if d == nil {
		return 0
	}
	best := uint8(0)
	for i, e := range d.eff {
		if e <= se {
			best = uint8(i)
		} else {
			break
		}
	}
	return best
}
