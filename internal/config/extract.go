// Package config implements the Appendix 10.1 extraction procedure: it
// recovers each carrier's channel configuration (Tables 2 and 3 of the
// paper) from the control-plane signaling captured in a columnar xcol trace —
// MIB, SIB1 and DCI frames — rather than from any hard-coded table. Channel
// bandwidth is recovered from carrierBandwidth (in RBs) via the TS 38.101-1
// lookup, and the in-use MCS table from the observed DCI format mix.
package config

import (
	"fmt"

	"github.com/midband5g/midband/internal/bands"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// ChannelConfig is one recovered carrier configuration — a row of Table 2
// or 3.
type ChannelConfig struct {
	// CellID is the physical cell identity from SIB1.
	CellID uint32
	// Band is the NR band designator.
	Band string
	// FrequencyMHz is the carrier frequency recovered from
	// absoluteFrequencyPointA.
	FrequencyMHz float64
	// SCSkHz is the subcarrier spacing.
	SCSkHz int
	// NRB is the carrierBandwidth in resource blocks.
	NRB int
	// BandwidthMHz is the channel bandwidth recovered from NRB via
	// TS 38.101-1 Table 5.3.2-1 (0 when the lookup fails).
	BandwidthMHz int
	// Duplex is "TDD" or "FDD".
	Duplex string
	// TDDPattern is the UL/DL pattern for TDD carriers.
	TDDPattern string
	// MaxMIMOLayers is the configured DL layer cap.
	MaxMIMOLayers int
	// MCSTable is the configured PDSCH table from SIB/RRC (1 or 2).
	MCSTable int
	// DCI11Share is the fraction of captured DCIs using format 1_1
	// (256QAM table); DCICount is the sample size.
	DCI11Share float64
	DCICount   int
	// Note flags inconsistencies found during extraction, e.g. an N_RB
	// that does not match any standard channelization at the signaled
	// SCS (the paper's own Table 3 prints such a combination for
	// T-Mobile's n25 carriers).
	Note string
}

// Extraction is the result of scanning one trace.
type Extraction struct {
	Meta     xcal.Meta
	MIBs     int
	Carriers []ChannelConfig
}

// Extract replays a columnar trace's signaling frames and recovers the
// channel configuration of every carrier whose SIB1 appears in it. KPI
// blocks are never decoded. A corrupt signaling block is an error, so a
// recovered table is never silently partial.
func Extract(s *xcol.Scanner) (*Extraction, error) {
	ex := &Extraction{Meta: s.Meta()}
	dciTotal := map[uint32]int{} // keyed by cell-order index
	dci11 := map[uint32]int{}
	var order []uint32
	byCell := map[uint32]*ChannelConfig{}

	var (
		mib xcal.MIB
		sib xcal.SIB1
		dci xcal.DCI
	)
	skipped := len(s.Corrupt())
	err := s.AuxFrames(func(t xcal.FrameType, _ uint64, payload []byte) error {
		switch t {
		case xcal.FrameMIB:
			if err := xcal.DecodeMIB(payload, &mib); err != nil {
				return fmt.Errorf("config: reading trace: %w", err)
			}
			ex.MIBs++
		case xcal.FrameSIB1:
			if err := xcal.DecodeSIB1(payload, &sib); err != nil {
				return fmt.Errorf("config: reading trace: %w", err)
			}
			cc, err := fromSIB1(&sib)
			if err != nil {
				return err
			}
			if _, ok := byCell[sib.CellID]; !ok {
				order = append(order, sib.CellID)
			}
			byCell[sib.CellID] = &cc
		case xcal.FrameDCI:
			if err := xcal.DecodeDCI(payload, &dci); err != nil {
				return fmt.Errorf("config: reading trace: %w", err)
			}
			key := uint32(dci.Carrier)
			dciTotal[key]++
			if dci.Format == xcal.DCI11 {
				dci11[key]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c := s.Corrupt(); len(c) > skipped {
		return nil, fmt.Errorf("config: reading trace: %w", c[skipped])
	}

	for i, id := range order {
		cc := byCell[id]
		// DCI frames are keyed by carrier index in capture order.
		if n := dciTotal[uint32(i)]; n > 0 {
			cc.DCICount = n
			cc.DCI11Share = float64(dci11[uint32(i)]) / float64(n)
		}
		ex.Carriers = append(ex.Carriers, *cc)
	}
	if len(ex.Carriers) == 0 {
		return nil, fmt.Errorf("config: trace %q contains no SIB1 frames", ex.Meta.Scenario)
	}
	return ex, nil
}

func fromSIB1(s *xcal.SIB1) (ChannelConfig, error) {
	cc := ChannelConfig{
		CellID:        s.CellID,
		Band:          s.Band,
		SCSkHz:        int(s.SCSkHz),
		NRB:           int(s.CarrierBandwidthRB),
		TDDPattern:    s.TDDPattern,
		MaxMIMOLayers: int(s.MaxMIMOLayers),
		MCSTable:      int(s.MCSTable),
		Duplex:        "TDD",
	}
	if s.FDD {
		cc.Duplex = "FDD"
	}
	if f, err := bands.ARFCNToFreq(s.AbsoluteFrequencyPointA); err == nil {
		cc.FrequencyMHz = f
	}
	mu, err := phy.FromSCS(cc.SCSkHz)
	if err != nil {
		return cc, fmt.Errorf("config: cell %d: %w", s.CellID, err)
	}
	fr := bands.FR1
	if b, err := bands.ByName(s.Band); err == nil {
		fr = b.Range
		// Sanity-check the recovered frequency against the band edges.
		if cc.FrequencyMHz != 0 && (cc.FrequencyMHz < b.LowMHz || cc.FrequencyMHz > b.HighMHz) {
			cc.Note = appendNote(cc.Note, fmt.Sprintf("frequency %.0f MHz outside %s", cc.FrequencyMHz, b.Name))
		}
	}
	bw, err := bands.BandwidthForNRB(fr, mu, cc.NRB)
	if err != nil {
		// The T-Mobile n25 case: the printed N_RB matches no standard
		// channelization at the signaled SCS. Try the 30 kHz column,
		// which is what the paper's Table 3 values actually are.
		if alt, err2 := bands.BandwidthForNRB(fr, phy.Mu1, cc.NRB); err2 == nil {
			bw = alt
			cc.Note = appendNote(cc.Note,
				fmt.Sprintf("N_RB=%d matches no %d kHz channelization; %d MHz assumes the 30 kHz column (as printed in the paper's Table 3)", cc.NRB, cc.SCSkHz, alt))
		} else {
			cc.Note = appendNote(cc.Note, fmt.Sprintf("N_RB=%d matches no standard channelization", cc.NRB))
		}
	}
	cc.BandwidthMHz = bw
	return cc, nil
}

func appendNote(existing, note string) string {
	if existing == "" {
		return note
	}
	return existing + "; " + note
}
