package net5g

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/simrand"
	"github.com/midband5g/midband/internal/tdd"
)

// LatencyConfig parameterizes the PHY user-plane latency model of §4.3:
// DL-plus-UL one-way latency for a small probe, dominated by TDD frame
// alignment, the scheduling-request cycle and HARQ retransmissions.
// Channel bandwidth plays no role — exactly the paper's finding.
type LatencyConfig struct {
	// Pattern is the TDD frame (zero value means FDD: every slot carries
	// both directions).
	Pattern tdd.Pattern
	// SlotDuration is the slot length.
	SlotDuration time.Duration
	// UEProcess and GNBProcess are per-node processing delays.
	UEProcess, GNBProcess time.Duration
	// SRBasedUL makes uplink data wait for a scheduling-request → grant
	// cycle; operators with preconfigured grants skip it. This is the
	// configuration difference that separates Vodafone Italy's ~7 ms
	// from Vodafone Germany's ~2 ms.
	SRBasedUL bool
	// DLBLER and ULBLER are the per-leg first-transmission error rates.
	DLBLER, ULBLER float64
	// RetxDelay is the extra delay of one fast retransmission (wait for
	// the next same-direction opportunity). Zero selects one slot.
	RetxDelay time.Duration
	// Seed drives the arrival-phase and error sampling.
	Seed int64
}

// Validate checks the configuration.
func (c LatencyConfig) Validate() error {
	if c.SlotDuration <= 0 {
		return fmt.Errorf("net5g: latency model needs a slot duration")
	}
	if c.DLBLER < 0 || c.DLBLER >= 1 || c.ULBLER < 0 || c.ULBLER >= 1 {
		return fmt.Errorf("net5g: BLER out of range: dl=%g ul=%g", c.DLBLER, c.ULBLER)
	}
	return nil
}

// LatencySample is one probe's outcome.
type LatencySample struct {
	// Total is the PHY user-plane latency (DL + UL legs).
	Total time.Duration
	// Retransmitted reports whether any leg needed a HARQ
	// retransmission (the paper's BLER > 0 bucket).
	Retransmitted bool
}

// dataTxSlots is the on-air time of a small latency probe in slot units.
// Probes fit in a type-B "mini-slot" allocation of roughly half a slot —
// which is also why channel bandwidth has no bearing on latency (§4.3).
const dataTxSlots = 0.5

// LatencyModel draws user-plane latency samples.
type LatencyModel struct {
	cfg LatencyConfig
	rng *simrand.Rand
	fdd bool
}

// NewLatencyModel builds the model.
func NewLatencyModel(cfg LatencyConfig) (*LatencyModel, error) {
	if cfg.RetxDelay == 0 {
		cfg.RetxDelay = cfg.SlotDuration
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LatencyModel{
		cfg: cfg,
		rng: simrand.New(cfg.Seed),
		fdd: cfg.Pattern.Period() == 0,
	}, nil
}

// slotsUntil returns the wait (in slot units, fractional) from time t (in
// slots) until the start of the next slot satisfying ok.
func (m *LatencyModel) slotsUntil(t float64, ok func(int64) bool) float64 {
	j := int64(t)
	if float64(j) < t {
		j++
	}
	for k := int64(0); ; k++ {
		if ok(j + k) {
			return float64(j+k) - t
		}
		if m.fdd {
			return float64(j) - t
		}
		if k > int64(4*m.cfg.Pattern.Period()) {
			return 0 // defensive: pattern without the needed slot type
		}
	}
}

func (m *LatencyModel) isDL(s int64) bool {
	return m.fdd || m.cfg.Pattern.DLSymbols(s) > 0
}

func (m *LatencyModel) isUL(s int64) bool {
	return m.fdd || m.cfg.Pattern.Slot(s) == tdd.Uplink
}

// isULOpportunity also accepts special slots, whose few UL symbols carry
// PUCCH control (scheduling requests) but not PUSCH data.
func (m *LatencyModel) isULOpportunity(s int64) bool {
	return m.fdd || m.cfg.Pattern.ULSymbols(s) > 0
}

// Sample draws one user-plane latency probe. Following the paper's
// definition ("PHY DL plus UL latency", after [24, 27]), the DL and UL legs
// are measured independently — each from its own uniformly random arrival
// phase — and summed.
func (m *LatencyModel) Sample() LatencySample {
	slot := m.cfg.SlotDuration.Seconds()
	period := 1.0
	if !m.fdd {
		period = float64(m.cfg.Pattern.Period())
	}

	retx := false

	// DL leg: packet at the gNB waits for a DL slot, one slot on air,
	// then UE processing.
	dl := m.rng.Float64() * period
	start := dl
	dl += m.slotsUntil(dl, m.isDL)
	dl += dataTxSlots
	if m.rng.Float64() < m.cfg.DLBLER {
		retx = true
		dl += m.cfg.RetxDelay.Seconds() / slot
	}
	dl += m.cfg.UEProcess.Seconds() / slot
	dlLeg := dl - start

	// UL leg: packet at the UE (optionally) runs the SR→grant cycle,
	// transmits on the next full UL slot, then gNB processing.
	ul := m.rng.Float64() * period
	start = ul
	if m.cfg.SRBasedUL {
		// Scheduling request: a short PUCCH on the next slot with UL
		// symbols (special slots qualify)...
		ul += m.slotsUntil(ul, m.isULOpportunity)
		ul += 0.5
		// ...then the grant DCI on the next PDCCH occasion.
		ul += m.cfg.GNBProcess.Seconds() / slot
		ul += m.slotsUntil(ul, m.isDL)
		ul += 0.5
	}
	ul += m.slotsUntil(ul, m.isUL)
	ul += dataTxSlots
	if m.rng.Float64() < m.cfg.ULBLER {
		// Retransmission grants are prescheduled; the retx rides the
		// next opportunity without a fresh SR cycle.
		retx = true
		ul += m.cfg.RetxDelay.Seconds() / slot
	}
	ul += m.cfg.GNBProcess.Seconds() / slot
	ulLeg := ul - start

	return LatencySample{
		Total:         time.Duration((dlLeg + ulLeg) * slot * float64(time.Second)),
		Retransmitted: retx,
	}
}

// Samples draws n probes and splits them into the paper's Fig. 11 buckets:
// BLER = 0 (no retransmission) and BLER > 0.
func (m *LatencyModel) Samples(n int) (clean, retx []time.Duration) {
	for i := 0; i < n; i++ {
		s := m.Sample()
		if s.Retransmitted {
			retx = append(retx, s.Total)
		} else {
			clean = append(clean, s.Total)
		}
	}
	return clean, retx
}
