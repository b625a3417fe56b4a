package gnb

import (
	"math"
	"math/rand"
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/simrand"
	"github.com/midband5g/midband/internal/tdd"
	"github.com/midband5g/midband/internal/ue"
)

// This file holds the reference oracles for the shared transport-block
// chain in tbpath.go: the three per-TB paths it replaced —
// Carrier.transmit/newTB, the share model's Cell.transmitUE and the
// contention model's Cell.newContentionTB/deliver — kept verbatim over
// their own copies of the per-carrier tables (refAMC is the old
// amcDerived), so FuzzTBPath can replay generated slots through both and
// compare every Alloc, OLLA offset, HARQ queue and RNG draw. The oracles
// draw from math/rand, production from internal/simrand, so the
// comparison also pins simrand to math/rand's streams. The oracles share
// only the leaf helpers (blerAck, ollaMCS, the TBS cache type) with
// production; each has its own fuzz target.

// refJob is the old harqJob layout.
type refJob struct {
	readySlot int64
	retx      uint8
	rank      int
	table     phy.MCSTable
	mcs       uint8
	rbs       int
	res       int
	tbs       int
}

// refAMC is the old amcDerived.
type refAMC struct {
	layerPenaltyDB [5]float64
	rankPow        [5]float64
	optimismLin    float64
	ulDerateLin    float64
	ulBackoffLin   float64
}

func newRefAMC(csiCfg ue.CSIConfig, cfg CarrierConfig) refAMC {
	var a refAMC
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

func (a *refAMC) layerPenalty(exp float64, rank int) float64 {
	if rank >= 1 && rank < len(a.layerPenaltyDB) {
		return a.layerPenaltyDB[rank]
	}
	return 10 * exp * math.Log10(float64(rank))
}

func (a *refAMC) rankPowAt(exp float64, rank int) float64 {
	if rank >= 1 && rank < len(a.rankPow) {
		return a.rankPow[rank]
	}
	return math.Pow(float64(rank), exp)
}

// refTables are the per-carrier tables NewCarrier and NewCell each built.
type refTables struct {
	csiCfg   ue.CSIConfig
	amc      refAMC
	tbs      *phy.TBSCache
	maxMCS   int
	mcsPick  *ollaMCS
	effByCQI [phy.MaxCQI + 1]float64
	dlSymTab []int
	ulSymTab []int
	ulEff    [phy.MaxCQI + 1][5]float64
	ulRank   [5]int
}

// newRefTables is NewCarrier's table construction, verbatim.
func newRefTables(cfg CarrierConfig, csiCfg2 ue.CSIConfig) *refTables {
	c := &refTables{
		csiCfg:  csiCfg2,
		amc:     newRefAMC(csiCfg2, cfg),
		tbs:     phy.NewTBSCache(cfg.MCSTable, cfg.DMRSPerPRB, 0),
		maxMCS:  int(cfg.MCSTable.MaxIndex()),
		mcsPick: ollaMCSFor(cfg.MCSTable, csiCfg2.Table),
	}
	for cqi := phy.CQI(1); cqi <= phy.MaxCQI; cqi++ {
		if row, err := csiCfg2.Table.Lookup(cqi); err == nil {
			c.effByCQI[cqi] = row.Efficiency
		}
	}
	if cfg.FDD {
		c.dlSymTab = []int{phy.SymbolsPerSlot - cfg.PDCCHSymbols}
	} else {
		period := cfg.Pattern.Period()
		c.dlSymTab = make([]int, period)
		for i := 0; i < period; i++ {
			if d := cfg.Pattern.DLSymbols(int64(i)); d > 0 {
				if s := d - cfg.PDCCHSymbols; s >= 1 {
					c.dlSymTab[i] = s
				}
			}
		}
	}
	if cfg.FDD {
		c.ulSymTab = []int{phy.SymbolsPerSlot}
	} else {
		c.ulSymTab = make([]int, cfg.Pattern.Period())
		for i := range c.ulSymTab {
			if cfg.Pattern.Slot(int64(i)) == tdd.Uplink {
				c.ulSymTab[i] = phy.SymbolsPerSlot
			}
		}
	}
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
	return c
}

// refCarrier is the old Carrier's per-TB state.
type refCarrier struct {
	*refTables
	cfg    CarrierConfig
	rng    *rand.Rand
	ollaDB float64
}

func refPopReady(queue *[]refJob, slot int64) (refJob, bool) {
	q := *queue
	for i := range q {
		if q[i].readySlot <= slot {
			j := q[i]
			*queue = append(q[:i], q[i+1:]...)
			return j, true
		}
	}
	return refJob{}, false
}

// transmit is the old Carrier.transmit, verbatim.
func (c *refCarrier) transmit(store *Alloc, queue *[]refJob, slot int64, symbols int,
	share float64, report ue.Report, sinrDB float64, outage, uplink bool) *Alloc {

	if outage {
		return nil // nothing schedulable without a link
	}

	var job refJob
	if j, ok := refPopReady(queue, slot); ok {
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
		*queue = append(*queue, refJob{
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
	return store
}

// newTB is the old Carrier.newTB, verbatim.
func (c *refCarrier) newTB(slot int64, symbols int, share float64, report ue.Report, uplink bool) refJob {
	rank := report.RI
	cqi := report.CQI
	table := c.cfg.MCSTable

	if cqi == 0 || rank < 1 || cqi > phy.MaxCQI {
		return refJob{}
	}

	eff := c.effByCQI[cqi]
	if eff == 0 {
		return refJob{}
	}

	var mcs uint8
	if uplink {
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
		mcs = table.HighestMCSForEfficiency(eff)
	} else {
		mcs = c.mcsPick.pick(cqi, c.ollaDB)
	}

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
		return refJob{}
	}
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
	return refJob{
		readySlot: slot,
		rank:      rank,
		table:     table,
		mcs:       mcs,
		rbs:       rbs,
		res:       params.REs(),
		tbs:       tbs,
	}
}

// refCellUE is one UE of the old Cell's per-TB state (index 0 only).
type refCellUE struct {
	*refTables
	cfg  *CarrierConfig
	rng  *rand.Rand
	harq []refJob
	buf  ue.Buffer
	olla float64
	sinr float64
	cqi  phy.CQI
	ri   int
}

// transmitUE is the old share-model Cell.transmitUE, verbatim but for
// the one UE's state living in refCellUE.
func (c *refCellUE) transmitUE(symbols int, frac float64) (Alloc, bool) {
	cfg := c.cfg
	u := c
	report := ue.Report{CQI: c.cqi, RI: c.ri}
	if report.CQI > phy.MaxCQI || c.effByCQI[report.CQI] == 0 {
		return Alloc{}, false
	}
	mcs := c.mcsPick.pick(report.CQI, c.olla)
	rbs := int(float64(cfg.NRB) * frac * (1 - cfg.RBJitterFrac*u.rng.Float64()))
	if rbs < 1 {
		rbs = 1
	}
	tbs, err := c.tbs.TBS(symbols, rbs, mcs, report.RI)
	if err != nil {
		return Alloc{}, false
	}
	dmrs := cfg.DMRSPerPRB
	if m := phy.SubcarriersPerRB * symbols; dmrs > m {
		dmrs = m
	}
	params := phy.TBSParams{
		Symbols: symbols, DMRSPerPRB: dmrs, PRBs: rbs,
		Layers: report.RI,
	}
	req, err := cfg.MCSTable.RequiredSINRdB(mcs)
	if err != nil {
		return Alloc{}, false
	}
	perLayer := c.sinr - c.amc.layerPenalty(c.csiCfg.LayerPenaltyExp, report.RI)
	ack := blerAck(u.rng.Float64(), perLayer, req)
	if ack {
		c.olla += 0.05 * cfg.TargetBLER / (1 - cfg.TargetBLER)
	} else {
		c.olla -= 0.05
	}
	c.olla = max(-6, min(3, c.olla))
	delivered := 0
	if ack {
		delivered = tbs
	}
	return Alloc{
		RBs: rbs, REs: params.REs(), Table: cfg.MCSTable, MCS: mcs,
		Rank: report.RI, TBSBits: tbs, ACK: ack, DeliveredBits: delivered,
	}, true
}

// newContentionTB is the old Cell.newContentionTB, verbatim.
func (c *refCellUE) newContentionTB(slot int64, report ue.Report, symbols, rbs int) (refJob, bool) {
	cfg := c.cfg
	u := c
	if report.CQI > phy.MaxCQI || c.effByCQI[report.CQI] == 0 {
		return refJob{}, false
	}
	mcs := c.mcsPick.pick(report.CQI, c.olla)
	tbs, err := c.tbs.TBS(symbols, rbs, mcs, report.RI)
	if err != nil {
		return refJob{}, false
	}
	if need := u.buf.BacklogBits(); !u.buf.Full() && need < float64(tbs) && rbs > 1 {
		shrunk := int(math.Ceil(float64(rbs) * need / float64(tbs)))
		if shrunk < 1 {
			shrunk = 1
		}
		if shrunk < rbs {
			if t2, err := c.tbs.TBS(symbols, shrunk, mcs, report.RI); err == nil {
				rbs, tbs = shrunk, t2
			}
		}
	}
	dmrs := cfg.DMRSPerPRB
	if m := phy.SubcarriersPerRB * symbols; dmrs > m {
		dmrs = m
	}
	params := phy.TBSParams{
		Symbols: symbols, DMRSPerPRB: dmrs, PRBs: rbs, Layers: report.RI,
	}
	return refJob{
		readySlot: slot,
		rank:      report.RI,
		table:     cfg.MCSTable,
		mcs:       mcs,
		rbs:       rbs,
		res:       params.REs(),
		tbs:       tbs,
	}, true
}

// deliver is the old Cell.deliver, verbatim.
func (c *refCellUE) deliver(slot int64, job refJob, sinrDB float64) (Alloc, bool) {
	cfg := c.cfg
	u := c
	perLayer := sinrDB - c.amc.layerPenalty(c.csiCfg.LayerPenaltyExp, job.rank)
	perLayer += harqCombineGainDB * float64(job.retx)
	req, err := job.table.RequiredSINRdB(job.mcs)
	if err != nil {
		return Alloc{}, false
	}
	ack := blerAck(u.rng.Float64(), perLayer, req)
	if !cfg.DisableOLLA {
		if ack {
			c.olla += 0.05 * cfg.TargetBLER / (1 - cfg.TargetBLER)
		} else {
			c.olla -= 0.05
		}
		c.olla = max(-6, min(3, c.olla))
	}
	delivered := 0
	if ack {
		delivered = u.buf.Drain(job.tbs)
	} else if !cfg.DisableHARQ && int(job.retx) < cfg.MaxHARQRetx {
		u.harq = append(u.harq, refJob{
			readySlot: slot + int64(cfg.HARQRTTSlots),
			retx:      job.retx + 1,
			rank:      job.rank,
			table:     job.table,
			mcs:       job.mcs,
			rbs:       job.rbs,
			res:       job.res,
			tbs:       job.tbs,
		})
	}
	return Alloc{
		RBs: job.rbs, REs: job.res, Table: job.table, MCS: job.mcs,
		Rank: job.rank, TBSBits: job.tbs, HARQRetx: job.retx, ACK: ack,
		DeliveredBits: delivered,
	}, true
}

func refPopReadyFit(queue *[]refJob, slot int64, maxRBs int) (refJob, bool) {
	q := *queue
	for i := range q {
		if q[i].readySlot <= slot && q[i].rbs <= maxRBs {
			j := q[i]
			*queue = append(q[:i], q[i+1:]...)
			return j, true
		}
	}
	return refJob{}, false
}

// countSrc counts the values drawn from a random stream, so a test can
// tell how far a reference stream has advanced.
type countSrc struct {
	src rand.Source64
	n   int
}

func (s *countSrc) Int63() int64    { s.n++; return s.src.Int63() }
func (s *countSrc) Uint64() uint64  { s.n++; return s.src.Uint64() }
func (s *countSrc) Seed(seed int64) { s.src.Seed(seed) }

func countingRand(seed int64) (*rand.Rand, *countSrc) {
	src := &countSrc{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// streamReplay is a simrand generator advanced, one raw draw at a time,
// to the position a counted math/rand reference stream has reached.
// Comparing it with the production generator checks that production
// consumed exactly the reference's draws.
type streamReplay struct {
	r *simrand.Rand
	n int
}

func newStreamReplay(seed int64) *streamReplay { return &streamReplay{r: simrand.New(seed)} }

// check advances the replay to drawn raw draws and requires got, the
// production generator, to hold the same state.
func (s *streamReplay) check(t *testing.T, step int, got *simrand.Rand, drawn int) {
	t.Helper()
	for ; s.n < drawn; s.n++ {
		s.r.Intn(1) // Int31n masks a power of two: exactly one raw draw
	}
	if *got != *s.r {
		t.Fatalf("step %d: production stream is not where the reference's %d draws leave it", step, drawn)
	}
}

// tbBytes hands out fuzz bytes, zero once exhausted.
type tbBytes []byte

func (b *tbBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// frac maps the next byte onto [0, 1].
func (b *tbBytes) frac() float64 { return float64(b.next()) / 255 }

// TB path modes of FuzzTBPath.
const (
	tbModeCarrier = iota
	tbModeShare
	tbModeContention
	tbModes
)

// Flag bits of FuzzTBPath.
const (
	tbFlagMCS64 = 1 << iota
	tbFlagCQI64
	tbFlagUnknownCQITable
	tbFlagDisableOLLA
	tbFlagDisableHARQ
	tbFlagFDD
	tbFlagFiniteTraffic
	tbFlagNoDither
)

var tbPatterns = []string{"DDDSU", "DDDDDDDSUU", "DSUUU", "DDDSUDDSUU"}

// tbPathConfig builds a carrier config from the fuzz inputs.
func tbPathConfig(flags uint8, p *tbBytes) CarrierConfig {
	cfg := CarrierConfig{
		Label:      "fuzz/tb",
		Numerology: phy.Mu1,
		NRB:        1 + int(p.next())%2*256 + int(p.next()),
		FDD:        flags&tbFlagFDD != 0,
		Pattern:    tdd.MustParse(tbPatterns[int(p.next())%len(tbPatterns)]),
		MCSTable:   phy.MCSTable256QAM,
		CSI: ue.CSIConfig{
			LayerPenaltyExp: 0.25 + 1.5*p.frac(),
			CQIOptimismDB:   6*p.frac() - 1,
		},
		Channel: channel.Config{
			CarrierFreqMHz:           3500,
			Route:                    channel.Stationary(channel.Point{X: 200}),
			Deployment:               channel.Deployment{Sites: []channel.Point{{}}, TxPowerDBmPerRE: 18},
			OtherCellInterferenceDBm: -100,
		},
		ULSINROffsetDB: 12 * p.frac(),
		ULMaxRank:      1 + int(p.next())%4,
		ULRBFraction:   0.05 + 0.95*p.frac(),
		PDCCHSymbols:   1 + int(p.next())%3,
		DMRSPerPRB:     1 + int(p.next())%40,
		TargetBLER:     0.01 + 0.5*p.frac(),
		DisableOLLA:    flags&tbFlagDisableOLLA != 0,
		DisableHARQ:    flags&tbFlagDisableHARQ != 0,
		HARQRTTSlots:   1 + int(p.next())%4,
		MaxHARQRetx:    1 + int(p.next())%4,
		RBJitterFrac:   0.3 * p.frac(),
		MCSDither:      1 + int(p.next())%3,
		RankDitherProb: 0.6 * p.frac(),
		Seed:           int64(p.next()) + 1,
	}
	if flags&tbFlagNoDither != 0 {
		cfg.MCSDither, cfg.RankDitherProb = -1, -1
	}
	if flags&tbFlagMCS64 != 0 {
		cfg.MCSTable = phy.MCSTable64QAM
	}
	switch {
	case flags&tbFlagUnknownCQITable != 0:
		cfg.CSI.Table = 3
	case flags&tbFlagCQI64 != 0:
		cfg.CSI.Table = phy.CQITable64QAM
	default:
		cfg.CSI.Table = phy.CQITable256QAM
	}
	return cfg
}

// tbStep is one generated slot's input to the chain.
type tbStep struct {
	sinrDB  float64
	cqi     phy.CQI
	ri      int
	symbols int
	share   float64
	rbs     int
	outage  bool
	uplink  bool
}

func nextTBStep(s *tbBytes, nrb int) tbStep {
	b := s.next()
	return tbStep{
		sinrDB:  float64(int(s.next())<<8|int(s.next()))/1024 - 24,
		cqi:     phy.CQI(s.next() % 17),
		ri:      int(s.next() % 6),
		symbols: int(s.next() % 15),
		share:   s.frac(),
		rbs:     1 + int(s.next())*nrb/256,
		outage:  b&1 != 0 && b&6 == 0,
		uplink:  b&8 != 0,
	}
}

// checkJobs compares a production HARQ queue with its reference.
func checkJobs(t *testing.T, step int, got []harqJob, want []refJob, table phy.MCSTable) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d queued retransmissions, reference %d", step, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.readySlot != w.readySlot || g.retx != w.retx || g.rank != w.rank || table != w.table ||
			g.mcs != w.mcs || g.rbs != w.rbs || g.res != w.res || g.tbs != w.tbs {
			t.Fatalf("step %d: queued job %d = %+v, reference %+v", step, i, g, w)
		}
	}
}

func checkTBStep(t *testing.T, step int, got, want *Alloc, ollaGot, ollaWant float64) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		t.Fatalf("step %d: alloc %+v, reference %+v", step, got, want)
	}
	if math.Float64bits(ollaGot) != math.Float64bits(ollaWant) {
		t.Fatalf("step %d: OLLA offset %v, reference %v", step, ollaGot, ollaWant)
	}
}

// checkTBTables compares the shared chain's tables with the reference
// construction.
func checkTBTables(t *testing.T, p *tbPath, ref *refTables) {
	t.Helper()
	if p.effByCQI != ref.effByCQI || p.maxMCS != ref.maxMCS || p.mcsPick != ref.mcsPick ||
		p.csi != ref.csiCfg {
		t.Fatal("CQI efficiency column, max MCS, MCS thresholds or CSI config differ from the reference")
	}
	if len(p.phases) != len(ref.dlSymTab) || len(p.phases) != len(ref.ulSymTab) {
		t.Fatalf("phase table %v, reference DL %v UL %v", p.phases, ref.dlSymTab, ref.ulSymTab)
	}
	for i, s := range p.phases {
		if s.dl != ref.dlSymTab[i] || s.ul != ref.ulSymTab[i] {
			t.Fatalf("phase table %v, reference DL %v UL %v", p.phases, ref.dlSymTab, ref.ulSymTab)
		}
	}
	a := ref.amc
	if p.layerPenaltyDB != a.layerPenaltyDB || p.rankPow != a.rankPow || p.optimismLin != a.optimismLin ||
		p.ulDerateLin != a.ulDerateLin || p.ulBackoffLin != a.ulBackoffLin {
		t.Fatal("AMC constants differ from the reference")
	}
}

// FuzzTBPath replays generated slots through the shared transport-block
// chain and through the reference copy of the path it replaced, in one
// of three modes: a Carrier (DL and UL, with dither and HARQ), a
// share-model Cell UE, or a contention-model Cell UE (HARQ first, then a
// fresh TB on an integer grant, with an optional finite buffer). Every
// slot's Alloc, OLLA offset and HARQ queue must match bit for bit, and
// the production generator must stand where a simrand replay of the
// reference's counted draws stands. The share reference never honoured
// DisableOLLA, so share mode runs with OLLA on.
func FuzzTBPath(f *testing.F) {
	f.Add(int64(1), uint8(tbModeCarrier), uint8(0), []byte{0, 245, 1, 128, 64, 100, 2, 200, 1, 11, 20, 2, 2, 10, 128, 90, 1}, []byte{0, 0x60, 0, 12, 3, 12, 255, 200})
	f.Add(int64(2), uint8(tbModeCarrier), uint8(tbFlagDisableOLLA|tbFlagMCS64), []byte{0, 100, 0, 20, 200, 30, 3, 100, 0, 11, 200}, []byte{8, 0x30, 0, 9, 4, 12, 255, 8, 0x20, 0, 15, 2, 10, 128, 8, 0x10, 0, 6, 5, 11, 100})
	f.Add(int64(3), uint8(tbModeCarrier), uint8(tbFlagDisableHARQ|tbFlagCQI64|tbFlagFDD), []byte{1, 17, 2}, []byte{0, 0x58, 0, 15, 4, 13, 255, 0, 0x10, 0, 3, 1, 2, 10})
	f.Add(int64(4), uint8(tbModeShare), uint8(0), []byte{0, 162, 0, 128, 60}, []byte{0, 0x50, 0, 12, 2, 12, 128, 0, 0x30, 0, 14, 4, 12, 64, 0, 0x20, 0, 16, 1, 12, 200})
	f.Add(int64(5), uint8(tbModeContention), uint8(0), []byte{0, 162, 1, 128, 60, 50, 2, 3, 0, 20, 1, 3}, []byte{0, 0x20, 0, 13, 4, 12, 0, 255, 0, 0x20, 0, 13, 4, 12, 0, 255, 0, 0x20, 0, 13, 4, 12, 0, 255, 0, 0x20, 0, 13, 4, 12, 0, 255})
	f.Add(int64(6), uint8(tbModeContention), uint8(tbFlagFiniteTraffic|tbFlagDisableOLLA), []byte{0, 50, 3, 10, 10, 10, 1, 100, 2, 1, 100, 1, 3, 1, 1, 7}, []byte{0, 0x48, 0, 11, 2, 12, 0, 30, 0, 0x48, 0, 11, 2, 12, 0, 30, 0, 0x10, 0, 11, 2, 12, 0, 30})
	f.Add(int64(7), uint8(tbModeCarrier), uint8(tbFlagUnknownCQITable|tbFlagNoDither), []byte{0, 10}, []byte{0, 0x60, 0, 12, 3, 12, 255, 200, 8, 0x60, 0, 5, 5, 12, 255})
	f.Add(int64(8), uint8(tbModeContention), uint8(tbFlagFiniteTraffic), []byte{0, 200, 0, 128, 60, 50, 2, 3, 0, 20, 1, 3, 0, 2, 3, 1, 1, 7, 128, 5}, []byte{0, 0x60, 0, 15, 4, 12, 0, 255, 0, 0x60, 0, 15, 4, 12, 0, 255, 0, 0x60, 0, 15, 4, 12, 0, 255})
	f.Fuzz(func(t *testing.T, seed int64, mode, flags uint8, params, steps []byte) {
		mode %= tbModes
		if mode == tbModeShare {
			flags &^= tbFlagDisableOLLA
		}
		p := tbBytes(params)
		cfg := tbPathConfig(flags, &p)
		olla0 := float64(int(p.next())-128) / 16
		r := p.frac()
		offeredMbps := 0.01 + 400*r*r*r // finite buffers down to a few bits per slot
		if len(steps) > 32*8 {
			steps = steps[:32*8]
		}
		s := tbBytes(steps)

		if mode == tbModeCarrier {
			c, err := NewCarrier(cfg)
			if err != nil {
				t.Skip(err)
			}
			ref := &refCarrier{refTables: newRefTables(c.cfg, c.csi.Config()), cfg: c.cfg, ollaDB: olla0}
			checkTBTables(t, &c.tb, ref.refTables)
			if c.ulEff != ref.ulEff || c.ulRank != ref.ulRank {
				t.Fatal("UL link-adaptation tables differ from the reference")
			}
			var wantN *countSrc
			c.rng = simrand.New(seed)
			ref.rng, wantN = countingRand(seed)
			replay := newStreamReplay(seed)
			c.ollaDB = olla0
			var refDL, refUL []refJob
			var refStore Alloc
			for i := 0; len(s) > 0; i++ {
				st := nextTBStep(&s, cfg.NRB)
				rep := ue.Report{CQI: st.cqi, RI: st.ri}
				store, queue, refQueue := &c.dlAlloc, &c.harqDL, &refDL
				if st.uplink {
					store, queue, refQueue = &c.ulAlloc, &c.harqUL, &refUL
				}
				got := c.transmit(store, queue, int64(i), st.symbols, st.share, rep, st.sinrDB, st.outage, st.uplink)
				want := ref.transmit(&refStore, refQueue, int64(i), st.symbols, st.share, rep, st.sinrDB, st.outage, st.uplink)
				checkTBStep(t, i, got, want, c.ollaDB, ref.ollaDB)
				replay.check(t, i, c.rng, wantN.n)
				checkJobs(t, i, *queue, *refQueue, c.cfg.MCSTable)
			}
			return
		}

		ccfg := CellConfig{Carrier: cfg, UEs: []channel.Point{{X: 45}}, Seed: int64(flags) + 1}
		if mode == tbModeContention {
			ccfg.Model = CellModelContention
			if flags&tbFlagFiniteTraffic != 0 {
				ccfg.Traffic = []UETraffic{{OfferedMbps: offeredMbps}}
			}
		}
		cell, err := NewCell(ccfg)
		if err != nil {
			t.Skip(err)
		}
		u := cell.ues[0]
		ref := &refCellUE{
			refTables: newRefTables(cell.cfg.Carrier, u.csi.Config()),
			cfg:       &cell.cfg.Carrier,
			buf:       u.buf,
			olla:      olla0,
		}
		checkTBTables(t, &cell.tb, ref.refTables)
		var wantN *countSrc
		u.rng = simrand.New(seed)
		ref.rng, wantN = countingRand(seed)
		replay := newStreamReplay(seed)
		cell.olla[0] = olla0
		for i := 0; len(s) > 0; i++ {
			st := nextTBStep(&s, cfg.NRB)
			slot := int64(i)
			cell.cqi[0], cell.ri[0], cell.sinr[0] = st.cqi, st.ri, st.sinrDB
			ref.cqi, ref.ri, ref.sinr = st.cqi, st.ri, st.sinrDB
			var got, want *Alloc
			if mode == tbModeShare {
				var g Alloc
				gok := cell.transmitUE(&g, slot, 0, st.symbols, st.share)
				w, wok := ref.transmitUE(st.symbols, st.share)
				if gok {
					got = &g
				}
				if wok {
					want = &w
				}
			} else {
				u.buf.Arrive()
				ref.buf.Arrive()
				var job harqJob
				if popReadyFit(&job, &u.harq, slot, st.rbs) ||
					cell.newContentionTB(&job, slot, 0, ue.Report{CQI: st.cqi, RI: st.ri}, st.symbols, st.rbs) {
					got = new(Alloc)
					cell.deliver(got, slot, 0, &job, st.sinrDB)
				}
				if job, ok := refPopReadyFit(&ref.harq, slot, st.rbs); ok {
					if w, ok := ref.deliver(slot, job, st.sinrDB); ok {
						want = &w
					}
				} else if job, ok := ref.newContentionTB(slot, ue.Report{CQI: st.cqi, RI: st.ri}, st.symbols, st.rbs); ok {
					if w, ok := ref.deliver(slot, job, st.sinrDB); ok {
						want = &w
					}
				}
				if u.buf != ref.buf {
					t.Fatalf("step %d: buffer %+v, reference %+v", i, u.buf, ref.buf)
				}
			}
			checkTBStep(t, i, got, want, cell.olla[0], ref.olla)
			replay.check(t, i, u.rng, wantN.n)
			checkJobs(t, i, u.harq, ref.harq, cell.cfg.Carrier.MCSTable)
		}
	})
}

// TestShareModelHonoursDisableOLLA runs a share-model cell with OLLA
// disabled and requires every UE's offset to stay at 0.
func TestShareModelHonoursDisableOLLA(t *testing.T) {
	cfg := testCellConfig(t, SchedulerProportionalFair, []channel.Point{{X: 30}, {X: 60}, {X: 120}})
	cfg.Carrier.DisableOLLA = true
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbs := 0
	for slot := 0; slot < 400; slot++ {
		tbs += len(cell.Step().Allocs)
		for i, o := range cell.olla {
			if o != 0 {
				t.Fatalf("slot %d: UE %d OLLA offset %v with OLLA disabled", slot, i, o)
			}
		}
	}
	if tbs == 0 {
		t.Fatal("no transport blocks scheduled")
	}
}
