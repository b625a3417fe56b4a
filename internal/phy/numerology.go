// Package phy implements the 3GPP NR physical-layer primitives the paper's
// analysis depends on: numerology and slot timing (TS 38.211), the MCS and
// CQI tables (TS 38.214 §5.1.3.1 and §5.2.2.1), transport-block size
// determination (TS 38.214 §5.1.3.2), and the theoretical maximum data-rate
// formula (TS 38.306 §4.1.2) that §3.2 of the paper uses.
//
// Everything in this package is pure computation over standardized tables;
// it contains no simulation state.
package phy

import (
	"fmt"
	"time"
)

// Numerology is the 5G NR numerology µ (TS 38.211 §4.2). Subcarrier spacing
// is 15 kHz × 2^µ; a slot always spans 14 OFDM symbols, so slot duration is
// 1 ms / 2^µ.
type Numerology uint8

const (
	// Mu0 is 15 kHz SCS (1 ms slots), used by LTE-like FDD carriers.
	Mu0 Numerology = 0
	// Mu1 is 30 kHz SCS (0.5 ms slots), used by every 5G mid-band TDD
	// carrier in the study.
	Mu1 Numerology = 1
	// Mu2 is 60 kHz SCS (0.25 ms slots).
	Mu2 Numerology = 2
	// Mu3 is 120 kHz SCS (0.125 ms slots), used by FR2 mmWave carriers.
	Mu3 Numerology = 3
)

// SymbolsPerSlot is the number of OFDM symbols in one slot with the normal
// cyclic prefix (TS 38.211 §4.3.2).
const SymbolsPerSlot = 14

// SubcarriersPerRB is the number of subcarriers in one resource block in the
// frequency domain (TS 38.211 §4.4.4.1).
const SubcarriersPerRB = 12

// SCSkHz returns the subcarrier spacing in kHz.
func (mu Numerology) SCSkHz() int { return 15 << mu }

// SlotDuration returns the duration of one slot.
func (mu Numerology) SlotDuration() time.Duration {
	return time.Millisecond >> mu
}

// SlotsPerFrame returns the number of slots per 10 ms radio frame.
func (mu Numerology) SlotsPerFrame() int { return 10 << mu }

// AvgSymbolDuration returns T_s^µ = 10^-3 / (14 · 2^µ) seconds, the average
// OFDM symbol duration used by the TS 38.306 maximum data-rate formula.
func (mu Numerology) AvgSymbolDuration() float64 {
	return 1e-3 / (SymbolsPerSlot * float64(int(1)<<mu))
}

// FromSCS returns the numerology for a subcarrier spacing in kHz.
func FromSCS(scsKHz int) (Numerology, error) {
	switch scsKHz {
	case 15:
		return Mu0, nil
	case 30:
		return Mu1, nil
	case 60:
		return Mu2, nil
	case 120:
		return Mu3, nil
	default:
		return 0, fmt.Errorf("phy: no numerology for SCS %d kHz", scsKHz)
	}
}

func (mu Numerology) String() string {
	return fmt.Sprintf("µ=%d (%d kHz)", uint8(mu), mu.SCSkHz())
}
