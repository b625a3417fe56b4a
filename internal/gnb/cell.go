package gnb

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/simrand"
	"github.com/midband5g/midband/internal/ue"
)

// This file implements a true multi-UE cell: several UEs, each with its own
// radio channel and CSI loop, contending for the same carrier's resource
// blocks under a configurable scheduler. The single-UE Carrier with a
// `Share` knob is sufficient for most of the paper's experiments; the Cell
// is the faithful version of the §5.2 multi-user experiment (Fig. 14) and
// the substrate for scheduler ablations.
//
// Both scheduling models step on one structure-of-arrays engine. NewCell
// adopts the UEs' channels into a channel.Batch, and Cell.Step runs one
// sense pass for the whole population (batched fading, then CSI and
// arrivals into parallel SINR/outage/CQI/rank/instSE/ready slices)
// before the share-model or contention scheduler reads those slices. The
// scalar contention path this engine replaced lives on in
// cell_oracle_test.go as the reference that the lockstep and fuzz tests
// replay against, draw for draw and bit for bit.

// SchedulerPolicy selects how the cell splits RBs among backlogged UEs.
type SchedulerPolicy uint8

const (
	// SchedulerEqualShare splits the RBs evenly among backlogged UEs —
	// what the paper observes ("the number of RBs allocated to each UE
	// has reduced by about 1/2").
	SchedulerEqualShare SchedulerPolicy = iota
	// SchedulerProportionalFair allocates each slot's RBs by the
	// classic PF metric (instantaneous rate / smoothed served rate).
	// The share model splits the slot between the two highest-metric
	// UEs; the contention model splits integer RBs across the whole
	// ready set in proportion to the metric.
	SchedulerProportionalFair
	// SchedulerMaxRate gives the whole slot to the UE with the best
	// instantaneous spectral efficiency (throughput-optimal, unfair).
	SchedulerMaxRate
	// SchedulerRoundRobin rotates whole slots over the backlogged UEs in
	// index order (time-domain TDM: equal slot share regardless of
	// channel quality).
	SchedulerRoundRobin
)

func (p SchedulerPolicy) String() string {
	switch p {
	case SchedulerProportionalFair:
		return "proportional-fair"
	case SchedulerMaxRate:
		return "max-rate"
	case SchedulerRoundRobin:
		return "round-robin"
	default:
		return "equal-share"
	}
}

// CellConfig describes a multi-UE cell.
type CellConfig struct {
	// Carrier is the shared carrier configuration; its Channel field is
	// used as the template for each UE (the route is overridden per UE).
	Carrier CarrierConfig
	// UEs are the per-UE positions (each UE gets an independent channel
	// realization at its own position).
	UEs []channel.Point
	// Policy is the RB-split policy.
	Policy SchedulerPolicy
	// PFWindowSlots is the PF averaging window (default 200 slots).
	PFWindowSlots int
	// Seed drives per-UE randomness.
	Seed int64
	// Model selects the scheduling fidelity. The zero value keeps the
	// legacy per-slot fractional-share model bit-identical to earlier
	// releases; CellModelContention enables per-UE HARQ, RLC-style
	// buffers, integer-RB grants and load-coupled interference (see
	// multiue.go).
	Model CellModel
	// Traffic optionally bounds each UE's offered load, index-matched
	// with UEs (nil, or a zero entry, is a full-buffer UE). Contention
	// model only.
	Traffic []UETraffic
	// DisableLoadCoupling keeps the statistical NeighborLoad
	// interference even when real co-UEs share the cell (ablation;
	// contention model only).
	DisableLoadCoupling bool
}

// Validate checks the configuration.
func (c CellConfig) Validate() error {
	if len(c.UEs) == 0 {
		return fmt.Errorf("gnb: cell needs at least one UE")
	}
	if c.Traffic != nil && len(c.Traffic) != len(c.UEs) {
		return fmt.Errorf("gnb: cell has %d UEs but %d traffic entries", len(c.UEs), len(c.Traffic))
	}
	if c.Model == CellModelShare && c.Traffic != nil {
		return fmt.Errorf("gnb: finite per-UE traffic requires CellModelContention (the share model is full-buffer)")
	}
	return c.Carrier.Validate()
}

// cellUE holds one UE's stateful components inside a cell. The harq queue is used by the contention model only
// (see multiue.go); the share model keeps it nil and its buffer in
// full-buffer mode, so its RNG draw sequence is unchanged by both.
type cellUE struct {
	ch   *channel.Channel // adopted by Cell.chb: step it only through the batch
	csi  *ue.CSI
	rng  *simrand.Rand
	harq []harqJob
	buf  ue.Buffer
}

// grant is one UE's share of a slot's RBs (share model).
type grant struct {
	idx  int
	frac float64
}

// pfScore is one UE's proportional-fair metric.
type pfScore struct {
	idx    int
	metric float64
}

// Cell simulates one carrier shared by several UEs. Not safe for
// concurrent use.
type Cell struct {
	cfg   CellConfig
	ues   []*cellUE
	chb   *channel.Batch
	slot  int64
	phase int // slot's TDD-period phase, advanced with it (tbPath.symbolsAt)

	// Per-UE structure-of-arrays state, index-matched with ues. The
	// schedulers read these in tight loops over the whole population, so
	// they live in parallel slices rather than inside cellUE.
	olla   []float64 // OLLA offsets (dB)
	served []float64 // PF-smoothed served rates (bits/slot)

	// This slot's sense pass, rewritten in full by every Step: SINR and
	// outage from the channel batch, the CSI report in effect (CQI, RI),
	// the estimated instantaneous spectral efficiency, and whether the UE
	// is eligible for a fresh grant.
	sinr   []float64
	outage []bool
	cqi    []phy.CQI
	ri     []int
	instSE []float64
	ready  []bool

	slotDur time.Duration
	tb      tbPath // the transport-block chain, shared by all UEs (they differ only in seeds)

	// Per-slot scratch, reused so the steady-state loop allocates nothing.
	// order is the scheduler's working set: the UE indices eligible this
	// slot, in grant order (ascending UE index, except that PF co-sorts
	// it by descending metric, ties by ascending index). rb holds the
	// contention model's integer RB shares, index-matched with order.
	order     []int
	rb        []int
	grants    []grant
	servedNow []float64
	allocs    []UEAlloc

	// PF ranking state: scores is the last rankPF ranking, which seeds
	// the next; pfMetric and pfMember are index-matched with ues.
	scores   []pfScore
	pfMetric []float64
	pfMember []bool

	// Scheduler state: the round-robin cursor (both models), and the
	// contention model's smoothed RB utilization for load coupling and
	// per-slot retransmission set (multiue.go).
	rr        int
	loadEMA   float64
	scheduled []bool
}

// UEAlloc is one UE's outcome in a slot.
type UEAlloc struct {
	// UE is the index into CellConfig.UEs.
	UE int
	// Alloc is the scheduled transport block.
	Alloc Alloc
	// SINRdB is the UE's channel state this slot.
	SINRdB float64
	// CQI is the report in effect.
	CQI phy.CQI
}

// CellSlot is everything that happened in one slot.
type CellSlot struct {
	Slot   int64
	Time   time.Duration
	Allocs []UEAlloc
}

// NewCell builds the cell.
func NewCell(cfg CellConfig) (*Cell, error) {
	cfg.Carrier = cfg.Carrier.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PFWindowSlots == 0 {
		cfg.PFWindowSlots = 200
	}
	cell := &Cell{cfg: cfg}
	n := len(cfg.UEs)
	cell.slotDur = cfg.Carrier.Numerology.SlotDuration()
	chs := make([]*channel.Channel, n)
	for i, pos := range cfg.UEs {
		chCfg := cfg.Carrier.Channel
		chCfg.Route = channel.Stationary(pos)
		chCfg.SlotDuration = cell.slotDur
		chCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/cell/channel", i)
		ch, err := channel.New(chCfg)
		if err != nil {
			return nil, fmt.Errorf("gnb: cell UE %d: %w", i, err)
		}
		csiCfg := cfg.Carrier.CSI
		csiCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/cell/csi", i)
		csi, err := ue.NewCSI(csiCfg)
		if err != nil {
			return nil, fmt.Errorf("gnb: cell UE %d: %w", i, err)
		}
		offered := 0.0
		if cfg.Traffic != nil {
			offered = cfg.Traffic[i].OfferedMbps
		}
		chs[i] = ch
		cell.ues = append(cell.ues, &cellUE{
			ch:  ch,
			csi: csi,
			rng: simrand.New(fleet.SplitSeed(cfg.Seed, "gnb/cell/ue", i)),
			buf: ue.NewBuffer(offered, cell.slotDur),
		})
	}
	chb, err := channel.NewBatch(chs)
	if err != nil {
		return nil, fmt.Errorf("gnb: cell: %w", err)
	}
	cell.chb = chb
	cell.olla = make([]float64, n)
	cell.served = make([]float64, n)
	for i := range cell.served {
		cell.served[i] = 1
	}
	cell.sinr = make([]float64, n)
	cell.outage = make([]bool, n)
	cell.cqi = make([]phy.CQI, n)
	cell.ri = make([]int, n)
	cell.instSE = make([]float64, n)
	cell.ready = make([]bool, n)
	cell.tb = newTBPath(&cell.cfg.Carrier, cell.ues[0].csi.Config()) // UEs differ only in seed
	cell.order = make([]int, 0, n)
	cell.rb = make([]int, 0, n)
	cell.grants = make([]grant, 0, n)
	cell.scores = make([]pfScore, 0, n)
	cell.pfMetric = make([]float64, n)
	cell.pfMember = make([]bool, n)
	cell.servedNow = make([]float64, n)
	cell.allocs = make([]UEAlloc, 0, n)
	if cfg.Model == CellModelContention {
		cell.scheduled = make([]bool, n)
		for _, u := range cell.ues {
			u.harq = make([]harqJob, 0, 8)
		}
	}
	// Observability only: record the cell's attached-UE population.
	if obs.Enabled() {
		obs.Sim.CellAttachedUEs.Set(float64(n))
	}
	return cell, nil
}

// Step advances one slot. The returned CellSlot's Allocs slice is owned
// by the Cell and valid until the next Step call. Under the share model
// every UE is backlogged and the slot's RBs are split fractionally;
// under CellModelContention the slot runs the full shared-resource loop
// in multiue.go (HARQ first, then fresh grants, with per-UE buffers
// gating eligibility, then load coupling).
//
//detlint:zeroalloc
func (c *Cell) Step() CellSlot {
	slot := c.slot
	c.slot++
	dlSym := c.tb.symbolsAt(&c.phase).dl
	res := CellSlot{Slot: slot, Time: time.Duration(slot) * c.slotDur}
	c.sense(slot)

	if dlSym == 0 {
		return res
	}
	contention := c.cfg.Model == CellModelContention
	var allocs []UEAlloc
	if contention {
		allocs = c.scheduleContention(slot, dlSym)
	} else if allocs = c.scheduleShare(slot, dlSym); allocs == nil {
		return res // nobody ready: the share model leaves the PF window as is
	}
	c.allocs = allocs
	if len(allocs) > 0 {
		res.Allocs = allocs // an empty slot keeps the nil Allocs of the old API
	}
	c.updatePFWindow(res.Allocs)
	if contention {
		c.coupleLoad(slot, res.Allocs)
	}
	return res
}

// sense advances every UE's channel through the batch, then folds the
// fresh SINR into each UE's CSI loop and arrival process and derives the
// per-UE scheduling inputs. Draw order per UE is channel stream, then
// CSI stream; cross-UE order is free because every stream is
// independent.
//
//detlint:zeroalloc
func (c *Cell) sense(slot int64) {
	c.chb.StepInto(c.sinr, c.outage)
	for i, u := range c.ues {
		u.csi.Observe(slot, c.sinr[i])
		u.buf.Arrive()
		rep, ok := u.csi.Current()
		c.cqi[i] = rep.CQI
		c.ri[i] = rep.RI
		c.instSE[i] = 0
		ready := ok && rep.CQI > 0 && !c.outage[i] && u.buf.Backlogged()
		c.ready[i] = ready
		if ready {
			c.instSE[i] = c.tb.cqiEff(rep.CQI) * float64(rep.RI)
		}
	}
}

// scheduleShare is the share model's scheduler: it picks the scheduled
// set and their RB fractions, then sizes one TB per grant. It returns
// nil when no UE is ready, and otherwise a non-nil (possibly empty)
// slice backed by c.allocs.
//
//detlint:zeroalloc
func (c *Cell) scheduleShare(slot int64, dlSym int) []UEAlloc {
	order := c.order[:0]
	for i, r := range c.ready {
		if r {
			order = append(order, i)
		}
	}
	c.order = order
	if len(order) == 0 {
		return nil
	}
	grants := c.grants[:0]
	switch c.cfg.Policy {
	case SchedulerMaxRate:
		best := order[0]
		for _, idx := range order[1:] {
			if c.instSE[idx] > c.instSE[best] {
				best = idx
			}
		}
		grants = append(grants, grant{best, 1})
	case SchedulerRoundRobin:
		// Whole-slot rotation over backlogged UEs (time-domain TDM).
		n := len(c.ues)
		for off := 0; off < n; off++ {
			cand := (c.rr + off) % n
			if c.ready[cand] {
				grants = append(grants, grant{cand, 1})
				c.rr = (cand + 1) % n
				break
			}
		}
	case SchedulerProportionalFair:
		// Rank by PF metric; split the slot between the top two
		// proportionally to their metrics.
		ss, _ := c.rankPF(order)
		if len(ss) == 1 {
			grants = append(grants, grant{ss[0].idx, 1})
		} else {
			total := ss[0].metric + ss[1].metric
			grants = append(grants,
				grant{ss[0].idx, ss[0].metric / total},
				grant{ss[1].idx, ss[1].metric / total},
			)
		}
	default: // equal share
		frac := 1 / float64(len(order))
		for _, idx := range order {
			grants = append(grants, grant{idx, frac})
		}
	}
	c.grants = grants

	allocs := c.allocs[:0]
	for _, g := range grants {
		allocs = c.nextAlloc(allocs, g.idx)
		if !c.transmitUE(&allocs[len(allocs)-1].Alloc, slot, g.idx, dlSym, g.frac) {
			allocs = allocs[:len(allocs)-1]
		}
	}
	return allocs
}

// rankPF scores order's UEs (ascending UE index) by the PF metric
// (instantaneous rate over window-smoothed served rate), summing the
// metrics in that order, and co-sorts the scores and order by descending
// metric, ties broken by ascending UE index. The insertion sort starts
// from the previous call's ranking, which the slowly moving served window
// keeps nearly sorted. No metric is NaN (served ≥ 1), so the order is
// total: the result is the one a stable sort from index order gives.
//
//detlint:zeroalloc
func (c *Cell) rankPF(order []int) ([]pfScore, float64) {
	total := 0.0
	for _, idx := range order {
		m := c.instSE[idx] / c.served[idx]
		c.pfMetric[idx] = m
		c.pfMember[idx] = true
		total += m
	}
	// Seed: the previous ranking filtered in place to this set, then the
	// newcomers in index order, clearing each mark as it is consumed.
	ss := c.scores[:0]
	for _, s := range c.scores {
		if c.pfMember[s.idx] {
			c.pfMember[s.idx] = false
			ss = append(ss, pfScore{s.idx, c.pfMetric[s.idx]})
		}
	}
	for _, idx := range order {
		if c.pfMember[idx] {
			c.pfMember[idx] = false
			ss = append(ss, pfScore{idx, c.pfMetric[idx]})
		}
	}
	for i := 1; i < len(ss); i++ {
		s, j := ss[i], i
		for ; j > 0 && pfBefore(s, ss[j-1]); j-- {
			ss[j] = ss[j-1]
		}
		ss[j] = s
	}
	for i, s := range ss {
		order[i] = s.idx
	}
	c.scores = ss
	return ss, total
}

// pfBefore is rankPF's order: descending metric, then ascending UE index.
func pfBefore(a, b pfScore) bool {
	return a.metric > b.metric || a.metric == b.metric && a.idx < b.idx //detlint:allow floatcmp equal metrics tie-break on the UE index
}

// updatePFWindow folds one slot's delivered bits into every UE's
// PF-smoothed served rate (also decaying unserved UEs), clamped ≥ 1 so
// the PF metric can never divide by zero.
//
//detlint:zeroalloc
func (c *Cell) updatePFWindow(allocs []UEAlloc) {
	w := float64(c.cfg.PFWindowSlots)
	servedNow := c.servedNow
	for i := range servedNow {
		servedNow[i] = 0
	}
	for i := range allocs {
		servedNow[allocs[i].UE] = float64(allocs[i].Alloc.DeliveredBits)
	}
	served := c.served
	for i := range served {
		served[i] = (1-1/w)*served[i] + servedNow[i]/w
		if served[i] < 1 {
			served[i] = 1
		}
	}
}

// transmitUE schedules one TB for a UE with the given RB fraction at
// this slot's sensed CQI, rank and SINR, through the chain Carrier.transmit
// runs (without HARQ — the share model's Fig. 14 questions need none; the
// contention model has it), and writes its Alloc to dst. It reports
// false, with dst left as it was, when no TB can be sized.
//
//detlint:zeroalloc
func (c *Cell) transmitUE(dst *Alloc, slot int64, idx, symbols int, frac float64) bool {
	u := c.ues[idx]
	cqi, rank := c.cqi[idx], c.ri[idx]
	if c.tb.cqiEff(cqi) == 0 {
		return false
	}
	mcs := c.tb.mcsPick.pick(cqi, c.olla[idx])
	var job harqJob
	if !c.tb.size(&job, slot, symbols, c.tb.jitterRBs(frac, u.rng.Float64()), mcs, rank) {
		return false
	}
	ack := c.tb.decode(u.rng.Float64(), &job, c.sinr[idx], &c.olla[idx])
	delivered := 0
	if ack {
		delivered = job.tbs
	}
	c.tb.alloc(dst, &job, ack, delivered)
	return true
}

// Config returns the cell's effective configuration, with carrier and
// PF-window defaults applied.
func (c *Cell) Config() CellConfig { return c.cfg }

// SlotDuration returns the cell's slot length.
func (c *Cell) SlotDuration() time.Duration {
	return c.slotDur
}

// NumUEs returns the number of UEs sharing the cell.
func (c *Cell) NumUEs() int {
	return len(c.ues)
}

// FastLanes returns how many UE channels step on the batch's SoA fast
// path, degradation-episode channels included; the rest (blockage, fault
// blackouts) fall back to the exact scalar channel step inside the batch.
func (c *Cell) FastLanes() int { return c.chb.FastLanes() }

// ServedRate returns UE i's PF-window-smoothed served rate in
// bits/slot — the denominator of the proportional-fair metric. The
// window update clamps it to ≥ 1 so the metric can never divide by
// zero; the simtest harness asserts that invariant across policies.
func (c *Cell) ServedRate(i int) float64 {
	return c.served[i]
}
