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
	"math/rand"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
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

type harqJob struct {
	readySlot int64
	retx      uint8
	rank      int
	table     phy.MCSTable
	mcs       uint8
	rbs       int
	res       int
	tbs       int
}

// amcDerived holds per-carrier constants of the AMC slot path: the
// layer-split penalties, the UL power/backoff factors and the CQI
// optimism deflation are fixed per session, yet the scheduler used to
// recompute them (pow/log each) for every transport block. They are
// computed once at construction from the exact same expressions, so the
// precomputed path is bit-identical.
type amcDerived struct {
	// layerPenaltyDB[r] = 10·LayerPenaltyExp·log10(r) for rank r.
	layerPenaltyDB [5]float64
	// rankPow[r] = r^LayerPenaltyExp.
	rankPow [5]float64
	// optimismLin = 10^(CQIOptimismDB/10).
	optimismLin float64
	// ulDerateLin = 10^(−ULSINROffsetDB/10).
	ulDerateLin float64
	// ulBackoffLin = 10^(−ulBackoffDB/10).
	ulBackoffLin float64
}

func newAMCDerived(csiCfg ue.CSIConfig, cfg CarrierConfig) amcDerived {
	var a amcDerived
	exp := csiCfg.LayerPenaltyExp
	for r := 1; r < len(a.layerPenaltyDB); r++ {
		a.layerPenaltyDB[r] = 10 * exp * math.Log10(float64(r))
		a.rankPow[r] = math.Pow(float64(r), exp)
	}
	a.optimismLin = phy.DBToLinear(csiCfg.CQIOptimismDB)
	a.ulDerateLin = phy.DBToLinear(-cfg.ULSINROffsetDB)
	a.ulBackoffLin = phy.DBToLinear(-ulBackoffDB)
	return a
}

// layerPenalty returns 10·exp·log10(rank), from the precomputed table for
// the ranks the CSI loop can report.
func (a *amcDerived) layerPenalty(exp float64, rank int) float64 {
	if rank >= 1 && rank < len(a.layerPenaltyDB) {
		return a.layerPenaltyDB[rank]
	}
	return 10 * exp * math.Log10(float64(rank))
}

// rankPowAt returns rank^exp, precomputed for the reportable ranks.
func (a *amcDerived) rankPowAt(exp float64, rank int) float64 {
	if rank >= 1 && rank < len(a.rankPow) {
		return a.rankPow[rank]
	}
	return math.Pow(float64(rank), exp)
}

// Carrier is the per-carrier simulator. Not safe for concurrent use.
type Carrier struct {
	cfg  CarrierConfig
	ch   *channel.Channel
	csi  *ue.CSI
	rng  *rand.Rand
	slot int64

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

	// Slot-path constants (see amcDerived).
	slotDur time.Duration
	csiCfg  ue.CSIConfig // csi.Config(), cached to avoid per-TB copies
	amc     amcDerived
	tbs     *phy.TBSCache
	maxMCS  int // cfg.MCSTable.MaxIndex(), hoisted off the dither path

	// effByCQI hoists the CSI table's CQI→spectral-efficiency column so
	// newTB indexes a flat array instead of calling Lookup (with its
	// error path) once per transport block. Row 0 is 0 ("out of range").
	effByCQI [phy.MaxCQI + 1]float64

	// dlSymTab/ulSymTab precompute dlSymbols/ulSymbols over one TDD
	// period (length 1 for FDD) so the per-slot query is a table index
	// instead of a pattern walk. Values are exactly what the inline
	// pattern logic produced.
	dlSymTab []int
	ulSymTab []int

	// ulEff[cqi][dlRank] precomputes the UL link-adaptation chain (SRS
	// reconstruction, power derate, layer re-split, backoff) for every
	// reportable CQI and DL rank; ulRank[dlRank] is the matching UL rank
	// clamp. The chain is a pure function of (CQI, RI) and the per-session
	// amc factors, evaluated at construction with the same expressions, so
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
	csiCfg2 := csi.Config()
	c := &Carrier{
		cfg:     cfg,
		ch:      ch,
		csi:     csi,
		rng:     rand.New(rand.NewSource(fleet.SplitSeed(cfg.Seed, "gnb/sched", 0))),
		serving: -1,
		slotDur: cfg.Numerology.SlotDuration(),
		csiCfg:  csiCfg2,
		amc:     newAMCDerived(csiCfg2, cfg),
		tbs:     phy.NewTBSCache(cfg.MCSTable, cfg.DMRSPerPRB, 0),
		maxMCS:  int(cfg.MCSTable.MaxIndex()),
		rlf:     fault.NewRLFState(cfg.Fault),
	}
	for cqi := phy.CQI(1); cqi <= phy.MaxCQI; cqi++ {
		if row, err := csiCfg2.Table.Lookup(cqi); err == nil {
			c.effByCQI[cqi] = row.Efficiency
		}
	}
	// Precompute the per-slot symbol budgets over one TDD period (FDD
	// carriers are phase-invariant) so the slot path never touches the
	// pattern parser.
	if cfg.FDD {
		c.dlSymTab = []int{phy.SymbolsPerSlot - cfg.PDCCHSymbols}
		c.ulSymTab = []int{phy.SymbolsPerSlot}
	} else {
		period := cfg.Pattern.Period()
		c.dlSymTab = make([]int, period)
		c.ulSymTab = make([]int, period)
		for i := 0; i < period; i++ {
			if d := cfg.Pattern.DLSymbols(int64(i)); d > 0 {
				if s := d - cfg.PDCCHSymbols; s >= 1 {
					c.dlSymTab[i] = s
				}
			}
			if cfg.Pattern.Slot(int64(i)) == tdd.Uplink {
				c.ulSymTab[i] = phy.SymbolsPerSlot
			}
		}
	}
	// Precompute the UL link-adaptation chain for the reportable CQI and
	// rank grid (see the field comment; newTB falls back to the inline
	// expressions outside this grid).
	exp := csiCfg2.LayerPenaltyExp
	for cqi := phy.CQI(1); cqi <= phy.MaxCQI; cqi++ {
		row, err := csiCfg2.Table.Lookup(cqi)
		if err != nil {
			continue
		}
		for dlRank := 1; dlRank < len(c.ulRank); dlRank++ {
			rank := dlRank
			if rank > cfg.ULMaxRank {
				rank = cfg.ULMaxRank
			}
			totalLin := (math.Pow(2, row.Efficiency) - 1) / c.amc.optimismLin * c.amc.rankPowAt(exp, dlRank)
			perLayerLin := totalLin * c.amc.ulDerateLin /
				c.amc.rankPowAt(exp, rank)
			c.ulEff[cqi][dlRank] = math.Log2(1+perLayerLin) * c.amc.ulBackoffLin
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
func (c *Carrier) SlotDuration() time.Duration { return c.cfg.Numerology.SlotDuration() }

// dlSymbols returns the DL data symbols available in the slot, from the
// per-period table built at construction (slots are never negative).
func (c *Carrier) dlSymbols(slot int64) int {
	return c.dlSymTab[slot%int64(len(c.dlSymTab))]
}

// ulSymbols returns the UL data symbols available in the slot. Special-slot
// UL symbols are too few for PUSCH data and are reserved for control, so
// only full UL slots count (matching commercial mid-band behaviour).
func (c *Carrier) ulSymbols(slot int64) int {
	return c.ulSymTab[slot%int64(len(c.ulSymTab))]
}

// bler returns the block error probability for a TB whose MCS requires
// reqSINRdB when decoded at effective per-layer SINR sinrDB.
func bler(sinrDB, reqSINRdB float64) float64 {
	const slopeDB = 0.7
	return 1 / (1 + math.Exp((sinrDB-reqSINRdB)/slopeDB))
}

const harqCombineGainDB = 2.5

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

	if sym := c.dlSymbols(slot); sym > 0 && dl.Active && dl.Share > 0 {
		res.DL = c.transmit(&c.dlAlloc, &c.harqDL, slot, sym, dl.Share, report, res.Sample.SINRdB, res.Sample.Outage, false)
	}
	if sym := c.ulSymbols(slot); sym > 0 && ul.Active && ul.Share > 0 {
		res.UL = c.transmit(&c.ulAlloc, &c.harqUL, slot, sym, ul.Share, report, res.Sample.SINRdB, res.Sample.Outage, true)
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
	if j, ok := popReady(queue, slot); ok {
		job = j
	} else {
		job = c.newTB(slot, symbols, share, report, uplink)
		if job.tbs == 0 {
			return nil
		}
	}

	// Decode at the *current* per-layer SINR (the report that chose the
	// MCS is stale — that gap is what OLLA and HARQ absorb).
	sinr := sinrDB
	if uplink {
		sinr -= c.cfg.ULSINROffsetDB
	}
	perLayer := sinr - c.amc.layerPenalty(c.csiCfg.LayerPenaltyExp, job.rank)
	perLayer += harqCombineGainDB * float64(job.retx)
	req, err := job.table.RequiredSINRdB(job.mcs)
	if err != nil {
		return nil
	}
	ack := blerAck(c.rng.Float64(), perLayer, req)

	if !uplink && !c.cfg.DisableOLLA {
		// Outer loop: nudge toward the BLER target.
		if ack {
			c.ollaDB += 0.05 * c.cfg.TargetBLER / (1 - c.cfg.TargetBLER)
		} else {
			c.ollaDB -= 0.05
		}
		c.ollaDB = math.Max(-6, math.Min(3, c.ollaDB))
	}

	delivered := 0
	if ack {
		delivered = job.tbs
	} else if !c.cfg.DisableHARQ && int(job.retx) < c.cfg.MaxHARQRetx {
		*queue = append(*queue, harqJob{
			readySlot: slot + int64(c.cfg.HARQRTTSlots),
			retx:      job.retx + 1,
			rank:      job.rank,
			table:     job.table,
			mcs:       job.mcs,
			rbs:       job.rbs,
			res:       job.res,
			tbs:       job.tbs,
		})
	}

	*store = Alloc{
		RBs: job.rbs, REs: job.res, Table: job.table, MCS: job.mcs,
		Rank: job.rank, TBSBits: job.tbs, HARQRetx: job.retx, ACK: ack,
		DeliveredBits: delivered,
	}
	// Observability only — recorded after every scheduling decision is
	// final, never read back, so metrics cannot perturb the simulation.
	if obs.Enabled() {
		obs.Sim.MCS.Observe(float64(job.mcs))
		obs.Sim.Rank.Observe(float64(job.rank))
		obs.Sim.HARQRetx.Observe(float64(job.retx))
		if ack {
			obs.Sim.TBAcks.Inc()
		} else {
			obs.Sim.TBNacks.Inc()
		}
	}
	return store
}

// newTB builds a fresh transport block from the CSI in effect.
//
//detlint:zeroalloc
func (c *Carrier) newTB(slot int64, symbols int, share float64, report ue.Report, uplink bool) harqJob {
	rank := report.RI
	cqi := report.CQI
	table := c.cfg.MCSTable

	if cqi == 0 || rank < 1 || cqi > phy.MaxCQI {
		return harqJob{}
	}

	// Vendor CQI→MCS mapping: match the reported spectral efficiency
	// (hoisted into effByCQI at construction), shifted by the outer-loop
	// offset. A zero entry means the CSI table's Lookup failed at
	// construction (every valid row has positive efficiency), matching
	// the inline lookup's error return.
	eff := c.effByCQI[cqi]
	if eff == 0 {
		return harqJob{}
	}

	if uplink {
		// The gNB estimates UL quality from sounding reference signals:
		// reconstruct the total-SINR estimate behind the DL report,
		// derate by the UL power deficit, and re-split across UL layers.
		// The DL outer-loop offset does not apply; UL link adaptation
		// carries its own fixed backoff instead. The whole chain is a pure
		// function of (CQI, RI), so the construction-time ulEff table
		// covers the reportable grid; the inline expressions remain for
		// anything outside it.
		share *= c.cfg.ULRBFraction
		if cqi <= phy.MaxCQI && rank < len(c.ulRank) {
			eff = c.ulEff[cqi][rank]
			rank = c.ulRank[rank]
		} else {
			exp := c.csiCfg.LayerPenaltyExp
			dlRank := rank
			if rank > c.cfg.ULMaxRank {
				rank = c.cfg.ULMaxRank
			}
			// Deflate the report's optimism (the gNB calibrates for it).
			totalLin := (math.Pow(2, eff) - 1) / c.amc.optimismLin * c.amc.rankPowAt(exp, dlRank)
			perLayerLin := totalLin * c.amc.ulDerateLin /
				c.amc.rankPowAt(exp, rank)
			eff = math.Log2(1+perLayerLin) * c.amc.ulBackoffLin
		}
	} else {
		eff *= phy.DBToLinear(c.ollaDB)
	}
	mcs := table.HighestMCSForEfficiency(eff)

	// Per-slot link-adaptation dither (sub-band scheduling, per-slot
	// re-evaluation): the DCI-signaled MCS and rank move at slot scale.
	if d := c.cfg.MCSDither; d > 0 {
		m := int(mcs) + c.rng.Intn(2*d+1) - d
		if m < 0 {
			m = 0
		}
		if m > c.maxMCS {
			m = c.maxMCS
		}
		mcs = uint8(m)
	}
	if c.cfg.RankDitherProb > 0 && rank > 1 && c.rng.Float64() < c.cfg.RankDitherProb {
		rank--
	}

	// Near-maximum RB allocation with scheduler jitter (Fig. 4).
	rbs := int(float64(c.cfg.NRB) * share * (1 - c.cfg.RBJitterFrac*c.rng.Float64()))
	if rbs < 1 {
		rbs = 1
	}
	tbs, err := c.tbs.TBS(symbols, rbs, mcs, rank)
	if err != nil {
		return harqJob{}
	}
	// REs for the trace record: same DMRS clamp the cache applies
	// internally (MCS does not enter the RE count).
	dmrs := c.cfg.DMRSPerPRB
	if maxDMRS := phy.SubcarriersPerRB * symbols; dmrs > maxDMRS {
		dmrs = maxDMRS
	}
	params := phy.TBSParams{
		Symbols:    symbols,
		DMRSPerPRB: dmrs,
		PRBs:       rbs,
		Layers:     rank,
	}
	return harqJob{
		readySlot: slot,
		rank:      rank,
		table:     table,
		mcs:       mcs,
		rbs:       rbs,
		res:       params.REs(),
		tbs:       tbs,
	}
}

//detlint:zeroalloc
func popReady(queue *[]harqJob, slot int64) (harqJob, bool) {
	q := *queue
	for i := range q {
		if q[i].readySlot <= slot {
			j := q[i]
			*queue = append(q[:i], q[i+1:]...)
			return j, true
		}
	}
	return harqJob{}, false
}

// TheoreticalMaxMbps returns the TS 38.306 bound for this carrier,
// optionally derated by the TDD DL duty cycle (paper §3.2).
func (c *Carrier) TheoreticalMaxMbps(applyDuty bool) float64 {
	duty := 1.0
	if applyDuty && !c.cfg.FDD {
		duty = c.cfg.Pattern.DLDutyCycle()
	}
	maxRank := c.csiCfg.MaxRank
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
