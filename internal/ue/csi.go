// Package ue models the user-equipment side of the radio loop: periodic CSI
// feedback (CQI/RI, Appendix 10.2 of the paper) and the RRC state machine
// whose idle→connected promotion delay the measurement methodology controls
// for (§2, step ❺).
package ue

import (
	"fmt"
	"math"

	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/simrand"
)

// CSIConfig parameterizes the feedback loop.
type CSIConfig struct {
	// Table is the configured CQI table (64QAM or 256QAM grade).
	Table phy.CQITable
	// MaxRank is the maximum rank the UE may report (≤ 4).
	MaxRank int
	// PeriodSlots is the reporting period (tens of ms in the paper;
	// 40 slots = 20 ms at 30 kHz SCS).
	PeriodSlots int
	// DelaySlots is the age of the report when the gNB applies it
	// (propagation + processing; 8 slots = 4 ms).
	DelaySlots int
	// RankThresholdsDB are the SINR thresholds (dB) above which the UE
	// reports rank 2, 3 and 4. Deployment quality shifts how often the
	// channel clears them — the §4.1 MIMO-layer mechanism.
	RankThresholdsDB [3]float64
	// RankHysteresisDB avoids rank flapping on small SINR moves.
	RankHysteresisDB float64
	// LayerPenaltyExp makes per-layer SINR sinr/r^exp; values > 1 model
	// inter-layer interference.
	LayerPenaltyExp float64
	// CQIOptimismDB is how optimistic the reported CQI is relative to the
	// Shannon mapping of the per-layer SINR. Real UEs report per-codeword
	// post-MMSE quality (including array gain), which runs a few dB above
	// the effective delivered efficiency; the gNB's outer loop absorbs
	// the bias when selecting MCS. Default 3 dB. This is why field CQI
	// sits at 12–15 in good coverage while delivered spectral efficiency
	// corresponds to CQI ≈ 10–11.
	CQIOptimismDB float64
	// Seed drives report jitter.
	Seed int64
}

func (c CSIConfig) withDefaults() CSIConfig {
	if c.MaxRank == 0 {
		c.MaxRank = 4
	}
	if c.PeriodSlots == 0 {
		c.PeriodSlots = 40
	}
	if c.DelaySlots == 0 {
		c.DelaySlots = 8
	}
	if c.RankThresholdsDB == [3]float64{} {
		c.RankThresholdsDB = [3]float64{8, 13, 17}
	}
	if c.RankHysteresisDB == 0 {
		c.RankHysteresisDB = 1
	}
	if c.LayerPenaltyExp == 0 {
		c.LayerPenaltyExp = 1.0
	}
	if c.CQIOptimismDB == 0 {
		c.CQIOptimismDB = 3.0
	}
	return c
}

// Validate checks the configuration.
func (c CSIConfig) Validate() error {
	c = c.withDefaults()
	if c.MaxRank < 1 || c.MaxRank > 4 {
		return fmt.Errorf("ue: max rank %d out of range", c.MaxRank)
	}
	if c.PeriodSlots < 1 || c.DelaySlots < 0 {
		return fmt.Errorf("ue: bad CSI timing period=%d delay=%d", c.PeriodSlots, c.DelaySlots)
	}
	if !(c.RankThresholdsDB[0] < c.RankThresholdsDB[1] && c.RankThresholdsDB[1] < c.RankThresholdsDB[2]) {
		return fmt.Errorf("ue: rank thresholds %v not increasing", c.RankThresholdsDB)
	}
	return nil
}

// Report is one CSI report: the rank indicator and CQI the UE feeds back.
type Report struct {
	// Slot is when the report was generated.
	Slot int64
	// RI is the rank indicator.
	RI int
	// CQI is the per-layer channel quality indicator.
	CQI phy.CQI
}

// CSI is the feedback state machine. The gNB queries Current to get the
// report in effect (the most recent one older than the feedback delay) —
// the lag is what makes AMC trail the channel, one of the §6 stall
// mechanisms.
type CSI struct {
	cfg      CSIConfig
	rng      *simrand.Rand
	lastRank int
	pending  []Report // reports generated but not yet visible to the gNB
	current  Report
	primed   bool
	// No reporting slot (multiple of PeriodSlots) lies strictly between
	// prevReport and nextReport, so Observe skips every slot between them
	// without a division. The zero value is the empty interval.
	prevReport, nextReport int64
}

// NewCSI creates a CSI feedback loop.
func NewCSI(cfg CSIConfig) (*CSI, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CSI{
		cfg:      cfg,
		rng:      simrand.New(cfg.Seed),
		lastRank: 1,
	}, nil
}

// Config returns the effective configuration.
func (c *CSI) Config() CSIConfig { return c.cfg }

// rankFor picks the reported rank from the instantaneous SINR with
// hysteresis around the previous rank's threshold.
//
//detlint:zeroalloc
func (c *CSI) rankFor(sinrDB float64) int {
	jitter := c.rng.NormFloat64() * 0.5
	s := sinrDB + jitter
	rank := 1
	for i, th := range c.cfg.RankThresholdsDB {
		eff := th
		switch {
		case c.lastRank >= i+2:
			eff -= c.cfg.RankHysteresisDB // stickiness: keep high rank
		case c.lastRank < i+2:
			eff += c.cfg.RankHysteresisDB
		}
		if s > eff {
			rank = i + 2
		}
	}
	if rank > c.cfg.MaxRank {
		rank = c.cfg.MaxRank
	}
	return rank
}

// Observe feeds one slot's SINR into the loop. On reporting slots a new
// report is generated; reports become visible to Current after DelaySlots.
//
//detlint:zeroalloc
func (c *CSI) Observe(slot int64, sinrDB float64) {
	// Promote matured reports, compacting the queue in place so its
	// backing array is reused (re-slicing from the front would leak
	// capacity and re-allocate on every later append).
	n := 0
	for n < len(c.pending) && slot-c.pending[n].Slot >= int64(c.cfg.DelaySlots) {
		c.current = c.pending[n]
		c.primed = true
		n++
	}
	if n > 0 {
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
	if !c.reportingSlot(slot) {
		return
	}
	if math.IsInf(sinrDB, -1) { // outage: out-of-range report
		c.pending = append(c.pending, Report{Slot: slot, RI: 1, CQI: 0})
		if obs.Enabled() {
			obs.Sim.CQIReports.Inc()
			obs.Sim.CQI.Observe(0)
		}
		return
	}
	rank := c.rankFor(sinrDB)
	c.lastRank = rank
	perLayer := phy.DBToLinear(sinrDB+c.cfg.CQIOptimismDB) /
		math.Pow(float64(rank), c.cfg.LayerPenaltyExp)
	se := math.Log2(1 + perLayer)
	cqi := c.cfg.Table.CQIFromEfficiency(se)
	c.pending = append(c.pending, Report{Slot: slot, RI: rank, CQI: cqi})
	// Observability only; never read back into the feedback loop.
	if obs.Enabled() {
		obs.Sim.CQIReports.Inc()
		obs.Sim.CQI.Observe(float64(cqi))
	}
}

// reportingSlot reports whether slot is a multiple of the reporting
// period. A slot strictly inside the known interval is not; any other
// slot takes the modulo and re-anchors the interval on the reporting
// slots around it, so the answer is exact for any slot sequence and the
// modulo runs once per period on the ascending slots of a simulation.
//
//detlint:zeroalloc
func (c *CSI) reportingSlot(slot int64) bool {
	if slot > c.prevReport && slot < c.nextReport {
		return false
	}
	p := int64(c.cfg.PeriodSlots)
	r := slot % p
	// base is the reporting slot between 0 and slot, inclusive. Within a
	// period of either end of the int64 range the bound past base wraps
	// around and leaves the interval empty, so those slots always take
	// the modulo.
	base := slot - r
	if r >= 0 {
		c.prevReport, c.nextReport = base, base+p
	} else {
		c.prevReport, c.nextReport = base-p, base
	}
	return r == 0
}

// Current returns the report in effect at the gNB, and false if no report
// has matured yet.
//
//detlint:zeroalloc
func (c *CSI) Current() (Report, bool) {
	return c.current, c.primed
}

// Reset desynchronizes the feedback loop, as a radio-link failure does:
// pending and current reports are discarded (the gNB's CSI context is
// gone after RRC re-establishment) and the rank memory returns to its
// initial state. The loop re-primes through Observe — a fresh report
// must be generated and mature through the feedback delay before
// Current reports true again. Reset draws no randomness and keeps the
// pending queue's backing array, so it is safe on the zero-alloc slot
// path.
//
//detlint:zeroalloc
func (c *CSI) Reset() {
	c.pending = c.pending[:0]
	c.current = Report{}
	c.primed = false
	c.lastRank = 1
}
