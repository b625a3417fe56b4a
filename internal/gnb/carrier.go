// Package gnb simulates the base-station side of one NR component carrier:
// per-slot scheduling against a TDD pattern, adaptive modulation and coding
// driven by delayed CQI feedback with outer-loop link adaptation, MIMO rank
// adaptation, and HARQ retransmissions. Together with internal/channel and
// internal/ue it generates the slot-level KPI processes whose distributions
// the paper measures in §4 and whose dynamics it measures in §5.
package gnb

import (
	"fmt"
	"math"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/simrand"
	"github.com/midband5g/midband/internal/tdd"
	"github.com/midband5g/midband/internal/ue"
)

// CarrierConfig describes one component carrier and its radio environment.
type CarrierConfig struct {
	// Label names the carrier in traces (e.g. "n78/90MHz").
	Label string
	// Numerology sets SCS and slot duration.
	Numerology phy.Numerology
	// NRB is the maximum transmission bandwidth in resource blocks.
	NRB int
	// FDD carriers schedule DL and UL every slot; TDD carriers follow
	// Pattern.
	FDD bool
	// Pattern is the TDD UL/DL pattern (ignored for FDD).
	Pattern tdd.Pattern
	// MCSTable is the vendor-configured PDSCH table (256QAM vs 64QAM
	// grade — the §4.1 Orange-Spain-100MHz distinction).
	MCSTable phy.MCSTable
	// CSI configures the UE feedback loop.
	CSI ue.CSIConfig
	// Channel configures the radio environment.
	Channel channel.Config
	// ULSINROffsetDB derates UL SINR relative to DL (UE power limits).
	ULSINROffsetDB float64
	// ULMaxRank caps uplink MIMO layers (typically 1–2).
	ULMaxRank int
	// ULRBFraction is the fraction of NRB granted to UL transmissions.
	ULRBFraction float64
	// PDCCHSymbols is control overhead at the head of DL slots.
	PDCCHSymbols int
	// DMRSPerPRB is the per-PRB DMRS overhead in REs.
	DMRSPerPRB int
	// TargetBLER is the outer-loop link adaptation target.
	TargetBLER float64
	// DisableOLLA turns outer-loop link adaptation off (ablation).
	DisableOLLA bool
	// DisableHARQ turns retransmissions off (ablation): failed TBs are
	// simply lost.
	DisableHARQ bool
	// HARQRTTSlots is the retransmission round trip in slots.
	HARQRTTSlots int
	// MaxHARQRetx bounds retransmissions per TB.
	MaxHARQRetx int
	// RBJitterFrac randomizes the per-slot RB grant slightly, as real
	// schedulers do around the maximum (Fig. 4 shows near-max RBs with a
	// short tail).
	RBJitterFrac float64
	// HandoverInterruptionSlots is the data interruption when the
	// serving cell changes along a route (NR handover execution takes
	// ~50 ms; default 100 slots at 30 kHz). The zero value selects the
	// default; to model instantaneous handovers set
	// DisableHandoverInterruption instead.
	HandoverInterruptionSlots int
	// DisableHandoverInterruption makes a zero interruption expressible:
	// when set, serving-cell changes never interrupt data and
	// HandoverInterruptionSlots is ignored (mirroring the
	// channel.Config.DisableNeighborLoad pattern; the zero value of
	// HandoverInterruptionSlots alone selects the 100-slot default).
	DisableHandoverInterruption bool
	// MCSDither is the ± range of per-slot MCS variation around the
	// link-adaptation point. Real gNBs schedule different sub-bands and
	// re-evaluate per slot, so the DCI-signaled MCS jitters at the
	// finest time scale (§3.1: parameters signaled per slot; the paper's
	// Fig. 12 MCS variability is highest at τ). Default 1; negative
	// disables.
	MCSDither int
	// RankDitherProb is the per-slot probability of scheduling one
	// layer fewer than reported (per-allocation rank adaptation).
	// Default 0.08; negative disables.
	RankDitherProb float64
	// Fault, when non-nil, injects deterministic radio-link failures:
	// data stops for ReestablishSlots (RRC re-establishment) and the
	// CSI loop desyncs and must re-prime. The injector draws from its
	// own seeded RNG, so a nil Fault leaves the scheduler's random
	// sequence untouched.
	Fault *fault.RLF
	// Seed drives scheduler randomness.
	Seed int64
}

func (c CarrierConfig) withDefaults() CarrierConfig {
	if c.ULMaxRank == 0 {
		c.ULMaxRank = 1
	}
	if c.ULRBFraction == 0 {
		c.ULRBFraction = 1
	}
	if c.PDCCHSymbols == 0 {
		// Effective control overhead after PDSCH rate-matching around
		// the CORESET: one symbol for a single-UE full-buffer load.
		c.PDCCHSymbols = 1
	}
	if c.DMRSPerPRB == 0 {
		c.DMRSPerPRB = 12
	}
	if c.TargetBLER == 0 {
		c.TargetBLER = 0.10
	}
	if c.HARQRTTSlots == 0 {
		c.HARQRTTSlots = 8
	}
	if c.MaxHARQRetx == 0 {
		c.MaxHARQRetx = 3
	}
	if c.RBJitterFrac == 0 {
		c.RBJitterFrac = 0.04
	}
	if c.DisableHandoverInterruption {
		c.HandoverInterruptionSlots = 0
	} else if c.HandoverInterruptionSlots == 0 {
		c.HandoverInterruptionSlots = 100
	}
	if c.MCSDither == 0 {
		c.MCSDither = 1
	}
	if c.RankDitherProb == 0 {
		c.RankDitherProb = 0.08
	}
	if c.CSI.Table == 0 {
		if c.MCSTable == phy.MCSTable256QAM {
			c.CSI.Table = phy.CQITable256QAM
		} else {
			c.CSI.Table = phy.CQITable64QAM
		}
	}
	return c
}

// Validate checks the configuration.
func (c CarrierConfig) Validate() error {
	c = c.withDefaults()
	if c.NRB < 1 {
		return fmt.Errorf("gnb: carrier %q NRB %d invalid", c.Label, c.NRB)
	}
	if !c.FDD && c.Pattern.Period() == 0 {
		return fmt.Errorf("gnb: carrier %q is TDD but has no pattern", c.Label)
	}
	if c.MCSTable != phy.MCSTable64QAM && c.MCSTable != phy.MCSTable256QAM {
		return fmt.Errorf("gnb: carrier %q MCS table %d invalid", c.Label, c.MCSTable)
	}
	if c.TargetBLER <= 0 || c.TargetBLER >= 1 {
		return fmt.Errorf("gnb: carrier %q target BLER %g invalid", c.Label, c.TargetBLER)
	}
	if c.ULRBFraction < 0 || c.ULRBFraction > 1 {
		return fmt.Errorf("gnb: carrier %q UL RB fraction %g invalid", c.Label, c.ULRBFraction)
	}
	return nil
}

// Alloc is one scheduled transport block in a slot.
type Alloc struct {
	// RBs and REs are the allocated resources.
	RBs, REs int
	// Table and MCS identify the modulation and coding scheme.
	Table phy.MCSTable
	MCS   uint8
	// Rank is the number of MIMO layers.
	Rank int
	// TBSBits is the transport block size.
	TBSBits int
	// HARQRetx counts prior attempts (0 = initial transmission).
	HARQRetx uint8
	// ACK reports whether the TB decoded.
	ACK bool
	// DeliveredBits is TBSBits on first-time success of the final
	// attempt, else 0.
	DeliveredBits int
}

// Modulation returns the modulation order of the allocation.
func (a Alloc) Modulation() phy.Modulation {
	m, err := a.Table.Lookup(a.MCS)
	if err != nil {
		return 0
	}
	return m.Modulation
}

// SlotResult is everything that happened on the carrier in one slot.
type SlotResult struct {
	// Slot is the slot index; Time its offset from start.
	Slot int64
	Time time.Duration
	// Sample is the radio state.
	Sample channel.Sample
	// CQI is the feedback report in effect at the gNB.
	CQI phy.CQI
	// DL and UL are the scheduled allocations (nil when the slot carries
	// none for that direction).
	DL, UL *Alloc
}

// Demand tells the scheduler whether the UE has traffic and what share of
// the carrier's resources it gets (1 for a lone full-buffer UE; 0.5 each
// for the Fig. 14 two-UE experiment).
type Demand struct {
	Active bool
	Share  float64
}

// FullBuffer is a lone saturating UE.
var FullBuffer = Demand{Active: true, Share: 1}

// Carrier is the per-carrier simulator. Not safe for concurrent use.
type Carrier struct {
	cfg   CarrierConfig
	ch    *channel.Channel
	csi   *ue.CSI
	rng   *simrand.Rand
	slot  int64
	phase int // slot's TDD-period phase, advanced with it (tbPath.symbolsAt)

	ollaDB  float64
	harqDL  []harqJob
	harqUL  []harqJob
	serving int   // last serving cell (-1 before first sample)
	hoUntil int64 // data interrupted until this slot (handover execution)
	dlAlloc Alloc // reused storage for SlotResult.DL
	ulAlloc Alloc

	rlf      *fault.RLFState
	rlfUntil int64 // data interrupted until this slot (RRC re-establishment)
	rlfCount int64

	slotDur time.Duration
	tb      tbPath // the transport-block chain and its per-carrier tables

	// ulEff[cqi][dlRank] precomputes the UL link-adaptation chain (SRS
	// reconstruction, power derate, layer re-split, backoff) for every
	// reportable CQI and DL rank; ulRank[dlRank] is the matching UL rank
	// clamp. The chain is a pure function of (CQI, RI) and the per-carrier
	// factors in tb, evaluated at construction with the same expressions, so
	// the table lookup is bit-identical to the inline pow/log sequence.
	ulEff  [phy.MaxCQI + 1][5]float64
	ulRank [5]int
}

// NewCarrier builds a carrier simulator.
func NewCarrier(cfg CarrierConfig) (*Carrier, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Channel.SlotDuration = cfg.Numerology.SlotDuration()
	if cfg.Channel.Seed == 0 {
		cfg.Channel.Seed = fleet.SplitSeed(cfg.Seed, "gnb/channel", 0)
	}
	ch, err := channel.New(cfg.Channel)
	if err != nil {
		return nil, fmt.Errorf("gnb: carrier %q: %w", cfg.Label, err)
	}
	csiCfg := cfg.CSI
	if csiCfg.Seed == 0 {
		csiCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/csi", 0)
	}
	csi, err := ue.NewCSI(csiCfg)
	if err != nil {
		return nil, fmt.Errorf("gnb: carrier %q: %w", cfg.Label, err)
	}
	c := &Carrier{
		cfg:     cfg,
		ch:      ch,
		csi:     csi,
		rng:     simrand.New(fleet.SplitSeed(cfg.Seed, "gnb/sched", 0)),
		serving: -1,
		slotDur: cfg.Numerology.SlotDuration(),
		rlf:     fault.NewRLFState(cfg.Fault),
	}
	c.tb = newTBPath(&c.cfg, csi.Config())
	// Precompute the UL link-adaptation chain for the reportable CQI and
	// rank grid (see the field comment; newTB falls back to the inline
	// expressions outside this grid).
	for cqi := phy.CQI(1); cqi <= phy.MaxCQI; cqi++ {
		eff := c.tb.effByCQI[cqi]
		if eff == 0 {
			continue // the CSI table cannot look the row up
		}
		for dlRank := 1; dlRank < len(c.ulRank); dlRank++ {
			rank := dlRank
			if rank > cfg.ULMaxRank {
				rank = cfg.ULMaxRank
			}
			c.ulEff[cqi][dlRank] = c.ulEfficiency(eff, dlRank, rank)
			c.ulRank[dlRank] = rank
		}
	}
	return c, nil
}

// Config returns the effective configuration.
func (c *Carrier) Config() CarrierConfig { return c.cfg }

// Channel returns the carrier's radio channel process.
func (c *Carrier) Channel() *channel.Channel { return c.ch }

// Slot returns the next slot index to be simulated.
func (c *Carrier) Slot() int64 { return c.slot }

// RLFs returns the number of injected radio-link failures so far.
func (c *Carrier) RLFs() int64 { return c.rlfCount }

// SlotDuration returns the slot length.
func (c *Carrier) SlotDuration() time.Duration { return c.slotDur }

// ulBackoffDB is the fixed UL link-adaptation backoff (see newTB).
const ulBackoffDB = 1.0

// Step simulates one slot. The returned SlotResult's DL/UL pointers are
// owned by the Carrier and valid until the next Step call.
//
//detlint:zeroalloc
func (c *Carrier) Step(dl, ul Demand) SlotResult {
	var res SlotResult
	c.StepInto(&res, dl, ul)
	return res
}

// SetRSRQNeeded does nothing: Sample.RSRQdB derives RSRQ on read. It is
// kept only because the bench module's ledger (bench/midbench) calls it.
func (c *Carrier) SetRSRQNeeded(bool) {}

// StepInto is Step writing the result in place: the link's slot loop owns
// per-carrier result storage, and threading it down here keeps the
// ~100-byte SlotResult from being copied at every layer boundary. All
// fields of res are overwritten.
//
//detlint:zeroalloc
func (c *Carrier) StepInto(res *SlotResult, dl, ul Demand) {
	slot := c.slot
	c.slot++
	sym := c.tb.symbolsAt(&c.phase)
	res.Slot = slot
	res.Time = time.Duration(slot) * c.slotDur
	res.DL, res.UL = nil, nil
	c.ch.StepInto(&res.Sample)
	c.csi.Observe(slot, res.Sample.SINRdB)
	report, haveCSI := c.csi.Current()
	res.CQI = report.CQI

	// Handover: a serving-cell change interrupts data while the UE
	// executes the switch (random access on the target cell).
	if c.serving >= 0 && res.Sample.ServingCell != c.serving && c.cfg.HandoverInterruptionSlots > 0 {
		c.hoUntil = slot + int64(c.cfg.HandoverInterruptionSlots)
		if obs.Enabled() {
			obs.Sim.Handovers.Inc()
		}
	}
	c.serving = res.Sample.ServingCell
	// Injected radio-link failure: data stops while the UE re-establishes
	// the RRC connection, and the CSI loop desyncs — scheduling cannot
	// resume until a fresh report matures (the recovery ⇒ re-sync
	// invariant internal/simtest checks). Exactly one injector draw per
	// slot, so fault timing never depends on scheduler state.
	if c.rlf != nil && c.rlf.Step() {
		if slot >= c.rlfUntil {
			c.rlfCount++
			if obs.Enabled() {
				obs.Sim.RLFs.Inc()
			}
		}
		c.rlfUntil = slot + int64(c.rlf.ReestablishSlots)
		c.csi.Reset()
	}
	if !haveCSI || slot < c.hoUntil || slot < c.rlfUntil {
		return
	}

	if sym.dl > 0 && dl.Active && dl.Share > 0 {
		res.DL = c.transmit(&c.dlAlloc, &c.harqDL, slot, sym.dl, dl.Share, report, res.Sample.SINRdB, res.Sample.Outage, false)
	}
	if sym.ul > 0 && ul.Active && ul.Share > 0 {
		res.UL = c.transmit(&c.ulAlloc, &c.harqUL, slot, sym.ul, ul.Share, report, res.Sample.SINRdB, res.Sample.Outage, true)
	}
}

// transmit schedules one TB (new or HARQ retransmission) in this slot.
//
//detlint:zeroalloc
func (c *Carrier) transmit(store *Alloc, queue *[]harqJob, slot int64, symbols int,
	share float64, report ue.Report, sinrDB float64, outage, uplink bool) *Alloc {

	if outage {
		return nil // nothing schedulable without a link
	}
	var job harqJob
	if !popReady(&job, queue, slot) && !c.newTB(&job, slot, symbols, share, report, uplink) {
		return nil
	}
	olla := &c.ollaDB
	if uplink {
		sinrDB -= c.cfg.ULSINROffsetDB
		olla = nil // UL link adaptation has a fixed backoff instead
	}
	ack := c.tb.decode(c.rng.Float64(), &job, sinrDB, olla)
	delivered := 0
	if ack {
		delivered = job.tbs
	} else if r, ok := c.tb.retry(&job, slot); ok {
		*queue = append(*queue, r)
	}
	c.tb.alloc(store, &job, ack, delivered)
	return store
}

// newTB writes to dst a fresh transport block from the CSI in effect. It
// reports false when nothing can be sent, a TB of zero bits included.
//
//detlint:zeroalloc
func (c *Carrier) newTB(dst *harqJob, slot int64, symbols int, share float64, report ue.Report, uplink bool) bool {
	rank := report.RI
	cqi := report.CQI
	// Vendor CQI→MCS mapping: match the reported spectral efficiency,
	// shifted by the outer-loop offset (mcsPick compares the offset with
	// precomputed thresholds). A zero efficiency means CQI 0 or a row the
	// CSI table cannot look up.
	eff := c.tb.cqiEff(cqi)
	if rank < 1 || eff == 0 {
		return false
	}

	var mcs uint8
	if uplink {
		// The gNB estimates UL quality from sounding reference signals:
		// reconstruct the total-SINR estimate behind the DL report,
		// derate by the UL power deficit, and re-split across UL layers.
		// The DL outer-loop offset does not apply; UL link adaptation
		// carries its own fixed backoff instead. The whole chain is a pure
		// function of (CQI, RI), so the construction-time ulEff table
		// covers the reportable grid; ulEfficiency remains for anything
		// outside it.
		share *= c.cfg.ULRBFraction
		if rank < len(c.ulRank) {
			eff = c.ulEff[cqi][rank]
			rank = c.ulRank[rank]
		} else {
			dlRank := rank
			rank = min(rank, c.cfg.ULMaxRank)
			eff = c.ulEfficiency(eff, dlRank, rank)
		}
		mcs = c.cfg.MCSTable.HighestMCSForEfficiency(eff)
	} else {
		mcs = c.tb.mcsPick.pick(cqi, c.ollaDB)
	}

	// Per-slot link-adaptation dither (sub-band scheduling, per-slot
	// re-evaluation): the DCI-signaled MCS and rank move at slot scale.
	if d := c.cfg.MCSDither; d > 0 {
		m := int(mcs) + c.rng.Intn(2*d+1) - d
		mcs = uint8(max(0, min(c.tb.maxMCS, m)))
	}
	if c.cfg.RankDitherProb > 0 && rank > 1 && c.rng.Float64() < c.cfg.RankDitherProb {
		rank--
	}

	// Near-maximum RB allocation with scheduler jitter (Fig. 4).
	return c.tb.size(dst, slot, symbols, c.tb.jitterRBs(share, c.rng.Float64()), mcs, rank) && dst.tbs > 0
}

// ulEfficiency is the UL spectral efficiency behind a DL report of
// efficiency eff at rank dlRank, re-split across rank UL layers.
//
//detlint:zeroalloc
func (c *Carrier) ulEfficiency(eff float64, dlRank, rank int) float64 {
	// Deflate the report's optimism (the gNB calibrates for it).
	totalLin := (math.Pow(2, eff) - 1) / c.tb.optimismLin * c.tb.rankPowAt(dlRank)
	perLayerLin := totalLin * c.tb.ulDerateLin / c.tb.rankPowAt(rank)
	return math.Log2(1+perLayerLin) * c.tb.ulBackoffLin
}

// popReady moves the first RTT-ready job of queue to dst.
//
//detlint:zeroalloc
func popReady(dst *harqJob, queue *[]harqJob, slot int64) bool {
	q := *queue
	for i := range q {
		if q[i].readySlot <= slot {
			*dst = q[i]
			*queue = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// TheoreticalMaxMbps returns the TS 38.306 bound for this carrier,
// optionally derated by the TDD DL duty cycle (paper §3.2).
func (c *Carrier) TheoreticalMaxMbps(applyDuty bool) float64 {
	duty := 1.0
	if applyDuty && !c.cfg.FDD {
		duty = c.cfg.Pattern.DLDutyCycle()
	}
	maxRank := c.tb.csi.MaxRank
	if maxRank == 0 {
		maxRank = 4
	}
	return phy.MaxRateMbps(phy.CarrierRateParams{
		Layers:      maxRank,
		Modulation:  c.cfg.MCSTable.MaxModulation(),
		Numerology:  c.cfg.Numerology,
		NRB:         c.cfg.NRB,
		Overhead:    phy.OverheadDLFR1,
		DLDutyCycle: duty,
	})
}
