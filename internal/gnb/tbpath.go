package gnb

import (
	"math"

	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/tdd"
	"github.com/midband5g/midband/internal/ue"
)

// This file is the one transport-block chain behind every scheduler in
// the package — Carrier.transmit, the share model's Cell.transmitUE and
// the contention model's Cell.newContentionTB/Cell.deliver:
//
//	CQI → efficiency → OLLA-shifted MCS → TBS/REs → BLER draw → OLLA step → HARQ retry
//
// The callers pick the MCS, the rank and the RB footprint (they differ in
// dither, jitter and grant sizing) and own every random stream: each
// method that needs a draw takes it as an argument, so a caller keeps
// its draw order by choosing when to draw.

// harqJob is one transport block, fresh or awaiting retransmission.
type harqJob struct {
	readySlot int64
	rank      int
	rbs       int
	res       int
	tbs       int
	retx      uint8
	mcs       uint8
}

const harqCombineGainDB = 2.5

// bler returns the block error probability for a TB whose MCS requires
// reqSINRdB when decoded at effective per-layer SINR sinrDB.
func bler(sinrDB, reqSINRdB float64) float64 {
	const slopeDB = 0.7
	return 1 / (1 + math.Exp((sinrDB-reqSINRdB)/slopeDB))
}

// tbPath holds one carrier's transport-block chain and the tables it
// reads. The layer-split penalties, the UL power/backoff factors, the
// CQI optimism deflation and the OLLA step are fixed per carrier, so they
// are computed once at construction from the same expressions the chain
// would otherwise evaluate per transport block. Each Carrier and each
// Cell builds its own: the TBS cache is not safe for concurrent use.
type tbPath struct {
	cfg *CarrierConfig // the owner's effective configuration
	csi ue.CSIConfig   // the CSI loop's effective configuration

	// layerPenaltyDB[r] = 10·LayerPenaltyExp·log10(r) and
	// rankPow[r] = r^LayerPenaltyExp for rank r.
	layerPenaltyDB [5]float64
	rankPow        [5]float64
	// optimismLin = 10^(CQIOptimismDB/10), ulDerateLin =
	// 10^(−ULSINROffsetDB/10), ulBackoffLin = 10^(−ulBackoffDB/10).
	optimismLin, ulDerateLin, ulBackoffLin float64
	// ollaUpDB is the OLLA step on an ACK, 0.05·target/(1−target).
	ollaUpDB float64

	// effByCQI is the CSI table's CQI→spectral-efficiency column, so the
	// slot path indexes a flat array instead of calling Lookup (with its
	// error path). Rows the table cannot look up (including CQI 0) are 0.
	effByCQI [phy.MaxCQI + 1]float64
	tbs      *phy.TBSCache
	mcsPick  *ollaMCS
	maxMCS   int // cfg.MCSTable.MaxIndex(), hoisted off the dither path
	// resPerPRB[s] is TBSParams.REs at one PRB for s data symbols, so a
	// TB's RE count is one multiply (the count is linear in PRBs).
	resPerPRB [phy.SymbolsPerSlot + 1]int
	// phases holds each TDD-period phase's data symbols (length 1 for
	// FDD); owners walk it with a cursor in step with their slot counter
	// (see symbolsAt).
	phases []slotSymbols
}

// slotSymbols is one slot's data-symbol budget per direction. DL slots
// lose the PDCCH symbols; special-slot UL symbols are too few for PUSCH
// data and are reserved for control, so only full UL slots count
// (matching commercial mid-band behaviour).
type slotSymbols struct {
	dl, ul int
}

// newTBPath builds the chain for an owner's effective carrier config
// (cfg must stay put: the path keeps the pointer) and its CSI loop's
// effective config.
func newTBPath(cfg *CarrierConfig, csiCfg ue.CSIConfig) tbPath {
	p := tbPath{
		cfg:          cfg,
		csi:          csiCfg,
		optimismLin:  phy.DBToLinear(csiCfg.CQIOptimismDB),
		ulDerateLin:  phy.DBToLinear(-cfg.ULSINROffsetDB),
		ulBackoffLin: phy.DBToLinear(-ulBackoffDB),
		ollaUpDB:     0.05 * cfg.TargetBLER / (1 - cfg.TargetBLER),
		tbs:          phy.NewTBSCache(cfg.MCSTable, cfg.DMRSPerPRB, 0),
		mcsPick:      ollaMCSFor(cfg.MCSTable, csiCfg.Table),
		maxMCS:       int(cfg.MCSTable.MaxIndex()),
	}
	exp := csiCfg.LayerPenaltyExp
	for r := 1; r < len(p.layerPenaltyDB); r++ {
		p.layerPenaltyDB[r] = 10 * exp * math.Log10(float64(r))
		p.rankPow[r] = math.Pow(float64(r), exp)
	}
	for q := range p.effByCQI {
		if row, err := csiCfg.Table.Lookup(phy.CQI(q)); err == nil {
			p.effByCQI[q] = row.Efficiency
		}
	}
	for s := range p.resPerPRB {
		p.resPerPRB[s] = phy.TBSParams{Symbols: s, DMRSPerPRB: cfg.DMRSPerPRB, PRBs: 1}.REs()
	}
	if cfg.FDD {
		p.phases = []slotSymbols{{dl: phy.SymbolsPerSlot - cfg.PDCCHSymbols, ul: phy.SymbolsPerSlot}}
	} else {
		p.phases = make([]slotSymbols, cfg.Pattern.Period())
		for i := range p.phases {
			if d := cfg.Pattern.DLSymbols(int64(i)); d > 0 {
				if s := d - cfg.PDCCHSymbols; s >= 1 {
					p.phases[i].dl = s
				}
			}
			if cfg.Pattern.Slot(int64(i)) == tdd.Uplink {
				p.phases[i].ul = phy.SymbolsPerSlot
			}
		}
	}
	return p
}

// symbolsAt returns the data symbols of the slot at TDD-period phase
// *phase and moves *phase on to the next slot's. An owner starts its
// cursor at 0 with its slot counter and advances it once per slot, so
// the phase is the slot index modulo the period without a division.
//
//detlint:zeroalloc
func (p *tbPath) symbolsAt(phase *int) slotSymbols {
	s := p.phases[*phase]
	if *phase++; *phase == len(p.phases) {
		*phase = 0
	}
	return s
}

// cqiEff returns the reported CQI's spectral efficiency, 0 when no fresh
// TB can be sized from it (CQI 0, beyond phy.MaxCQI, or a row the CSI
// table cannot look up).
//
//detlint:zeroalloc
func (p *tbPath) cqiEff(cqi phy.CQI) float64 {
	if cqi > phy.MaxCQI {
		return 0
	}
	return p.effByCQI[cqi]
}

// layerPenalty returns 10·exp·log10(rank), from the precomputed table for
// the ranks the CSI loop can report.
//
//detlint:zeroalloc
func (p *tbPath) layerPenalty(rank int) float64 {
	if rank >= 1 && rank < len(p.layerPenaltyDB) {
		return p.layerPenaltyDB[rank]
	}
	return 10 * p.csi.LayerPenaltyExp * math.Log10(float64(rank))
}

// rankPowAt returns rank^exp, precomputed for the reportable ranks.
//
//detlint:zeroalloc
func (p *tbPath) rankPowAt(rank int) float64 {
	if rank >= 1 && rank < len(p.rankPow) {
		return p.rankPow[rank]
	}
	return math.Pow(float64(rank), p.csi.LayerPenaltyExp)
}

// jitterRBs is the near-maximum RB grant for a resource share, less the
// scheduler's jitter for the uniform draw (Fig. 4), and at least 1.
//
//detlint:zeroalloc
func (p *tbPath) jitterRBs(share, draw float64) int {
	return max(1, int(float64(p.cfg.NRB)*share*(1-p.cfg.RBJitterFrac*draw)))
}

// size writes to dst a fresh TB of rbs RBs at mcs and rank for a slot
// with the given data symbols. It fails, leaving dst untouched, where
// the TBS cannot be looked up (no MCS row, symbols, RBs or layers out of
// range).
//
//detlint:zeroalloc
func (p *tbPath) size(dst *harqJob, slot int64, symbols, rbs int, mcs uint8, rank int) bool {
	tbs, err := p.tbs.TBS(symbols, rbs, mcs, rank)
	if err != nil {
		return false
	}
	dst.readySlot = slot
	dst.rank = rank
	dst.rbs = rbs
	// REs for the trace record (MCS does not enter the RE count). The
	// cache clamps DMRS to the REs of the symbols; REs floors the per-PRB
	// count at 0, which gives the same count unclamped. The lookup
	// accepted symbols, so they index the table.
	dst.res = p.resPerPRB[symbols] * rbs
	dst.tbs = tbs
	dst.retx = 0
	dst.mcs = mcs
	return true
}

// decode reports whether job decodes for the uniform draw at the current
// SINR (the report that chose the MCS is stale — that gap is what OLLA
// and HARQ absorb), split across its layers and raised by the combining
// gain of its earlier attempts. It then nudges the OLLA offset at *olla
// toward the BLER target, unless olla is nil (the uplink has no outer
// loop) or the config disables OLLA.
//
//detlint:zeroalloc
func (p *tbPath) decode(draw float64, job *harqJob, sinrDB float64, olla *float64) bool {
	perLayer := sinrDB - p.layerPenalty(job.rank)
	perLayer += harqCombineGainDB * float64(job.retx)
	// Cannot fail: size's TBS lookup accepted job.mcs in this table.
	req, _ := p.cfg.MCSTable.RequiredSINRdB(job.mcs)
	ack := blerAck(draw, perLayer, req)
	if olla != nil && !p.cfg.DisableOLLA {
		if ack {
			*olla += p.ollaUpDB
		} else {
			*olla -= 0.05
		}
		*olla = max(ollaLoDB, min(ollaHiDB, *olla))
	}
	return ack
}

// retry returns the retransmission of a failed job, ready one HARQ round
// trip after slot. It reports false when HARQ is off or the job has used
// up its retransmissions.
//
//detlint:zeroalloc
func (p *tbPath) retry(job *harqJob, slot int64) (harqJob, bool) {
	if p.cfg.DisableHARQ || int(job.retx) >= p.cfg.MaxHARQRetx {
		return harqJob{}, false
	}
	r := *job
	r.readySlot = slot + int64(p.cfg.HARQRTTSlots)
	r.retx++
	return r, true
}

// alloc writes job's Alloc with its decode outcome to dst, every field,
// and records the TB metrics. Observability only: recorded after every
// scheduling decision is final and never read back, so metrics cannot
// perturb the simulation.
//
//detlint:zeroalloc
func (p *tbPath) alloc(dst *Alloc, job *harqJob, ack bool, delivered int) {
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
	// Field by field: a composite literal is built in a stack temporary
	// with narrow stores and copied out with wide loads, which stalls
	// store forwarding on this per-TB path.
	dst.RBs = job.rbs
	dst.REs = job.res
	dst.Table = p.cfg.MCSTable
	dst.MCS = job.mcs
	dst.Rank = job.rank
	dst.TBSBits = job.tbs
	dst.HARQRetx = job.retx
	dst.ACK = ack
	dst.DeliveredBits = delivered
}
