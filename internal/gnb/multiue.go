package gnb

import (
	"fmt"
	"math"
	"strings"

	"github.com/midband5g/midband/internal/ue"
)

// This file is the full multi-UE contention model behind CellModelContention:
// per-UE HARQ processes and RLC-style buffers, integer-RB schedulers that
// allocate the carrier's NRB across the whole contending set, and
// load-coupled interference (the cell's own RB utilization replaces the
// statistical channel.Config.NeighborLoad). The legacy share model in
// cell.go stays bit-identical — the checked-in figures depend on it — so
// everything here is opt-in via CellConfig.Model. Both models share the
// sense pass in Cell.Step, and both size and decode every transport block
// through the carrier's chain in tbpath.go.

// CellModel selects the cell's scheduling fidelity.
type CellModel uint8

const (
	// CellModelShare is the legacy model: per-slot fractional RB splits
	// with no HARQ and full-buffer UEs. The zero value, bit-identical to
	// earlier releases (the extd figure arm depends on that).
	CellModelShare CellModel = iota
	// CellModelContention is the full shared-resource model: per-UE HARQ
	// and RLC-style buffers, integer-RB grants across the contending UE
	// set, and load-dependent interference.
	CellModelContention
)

func (m CellModel) String() string {
	if m == CellModelContention {
		return "contention"
	}
	return "share"
}

// UETraffic is one UE's offered downlink load in a contention cell.
type UETraffic struct {
	// OfferedMbps bounds the UE's arrival rate; 0 (or negative) is a
	// saturating full-buffer UE.
	OfferedMbps float64
}

// ParsePolicy resolves a scheduler-policy name (long form or the usual
// two-letter abbreviation) for CLI flags.
func ParsePolicy(s string) (SchedulerPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "eq", "equal", "equal-share":
		return SchedulerEqualShare, nil
	case "pf", "proportional-fair":
		return SchedulerProportionalFair, nil
	case "mt", "mr", "max-rate":
		return SchedulerMaxRate, nil
	case "rr", "round-robin":
		return SchedulerRoundRobin, nil
	}
	return 0, fmt.Errorf("gnb: unknown scheduler policy %q (want eq, pf, mt or rr)", s)
}

const (
	// loadEMAWindow smooths the cell's RB utilization into the neighbor
	// activity factor (DL-capable slots only — neighbors on the same
	// synchronized TDD frame interfere during DL slots, so UL slots say
	// nothing about DL activity; ~128 ms at 30 kHz SCS).
	loadEMAWindow = 256
	// loadPushPeriod is how often the smoothed utilization is pushed
	// into the UEs' channels. Pushing every slot would recompute the
	// static-geometry noise term per slot for no modeling gain.
	loadPushPeriod = 64
)

// scheduleContention is the contention model's scheduler over this
// slot's sense pass. Scheduling order within a slot: HARQ
// retransmissions first (in UE-index order, each keeping its original RB
// footprint), then fresh transport blocks for the remaining backlogged
// UEs under the configured policy, all within the carrier's NRB budget.
// The returned slice is backed by c.allocs.
//
//detlint:zeroalloc
func (c *Cell) scheduleContention(slot int64, dlSym int) []UEAlloc {
	budget := c.cfg.Carrier.NRB
	allocs := c.allocs[:0]
	sched := c.scheduled
	for i := range sched {
		sched[i] = false
	}

	// HARQ retransmissions preempt fresh data: a pending TB is re-sent as
	// soon as its RTT elapses and its original RB footprint fits the
	// remaining budget. Retransmissions need no fresh CQI (they were
	// sized by an earlier report) but do need a link (no outage).
	for i, u := range c.ues {
		if budget < 1 {
			break
		}
		if c.outage[i] {
			continue
		}
		var job harqJob
		if !popReadyFit(&job, &u.harq, slot, budget) {
			continue
		}
		budget -= job.rbs
		sched[i] = true
		allocs = c.nextAlloc(allocs, i)
		c.deliver(&allocs[len(allocs)-1].Alloc, slot, i, &job, c.sinr[i])
	}

	// Fresh grants for the backlogged UEs that did not retransmit: order
	// collects them, rb their integer RB shares, both in grant order.
	order := c.order[:0]
	for i, r := range c.ready {
		if r && !sched[i] {
			order = append(order, i)
		}
	}
	c.order = order
	if budget < 1 || len(order) == 0 {
		return allocs
	}
	rb := c.rb[:0]
	switch c.cfg.Policy {
	case SchedulerMaxRate:
		// Whole remaining budget to the best instantaneous spectral
		// efficiency (ties break on the lower UE index).
		best := 0
		for k, idx := range order[1:] {
			if c.instSE[idx] > c.instSE[order[best]] {
				best = k + 1
			}
		}
		for k := range order {
			w := 0
			if k == best {
				w = budget
			}
			rb = append(rb, w)
		}
	case SchedulerRoundRobin:
		// Whole-slot time-domain rotation over backlogged UEs: the
		// cursor remembers who is next, so every contender gets the
		// same share of slots regardless of channel quality.
		n := len(c.ues)
		chosen := -1
		for off := 0; off < n && chosen < 0; off++ {
			cand := (c.rr + off) % n
			if c.ready[cand] && !sched[cand] {
				chosen = cand
			}
		}
		c.rr = (chosen + 1) % n
		for _, idx := range order {
			w := 0
			if idx == chosen {
				w = budget
			}
			rb = append(rb, w)
		}
	case SchedulerProportionalFair:
		// Frequency-domain PF across the whole ready set: each UE's
		// integer RB share is proportional to its PF metric, with the
		// rounding remainder going to the highest metrics. The
		// served-rate window is what makes this fair over time. rankPF
		// reorders order by descending metric, which fixes the grant
		// order callers see and makes the remainder pass a prefix walk.
		ss, total := c.rankPF(order)
		left := budget
		for _, s := range ss {
			w := 0
			if total > 0 {
				w = int(float64(budget) * s.metric / total)
			}
			rb = append(rb, w)
			left -= w
		}
		// Σ⌊x⌋ > budget − n, so one descending prefix pass places the
		// remainder (at most one extra RB per UE).
		for i := 0; i < len(rb) && left > 0; i++ {
			rb[i]++
			left--
		}
	default: // equal share
		q, r := budget/len(order), budget%len(order)
		for k := range order {
			w := q
			if k < r {
				w++
			}
			rb = append(rb, w)
		}
	}
	c.rb = rb

	for k, idx := range order {
		rbs := rb[k]
		if rbs < 1 {
			continue
		}
		rep := ue.Report{CQI: c.cqi[idx], RI: c.ri[idx]}
		var job harqJob
		if !c.newContentionTB(&job, slot, idx, rep, dlSym, rbs) {
			continue
		}
		allocs = c.nextAlloc(allocs, idx)
		c.deliver(&allocs[len(allocs)-1].Alloc, slot, idx, &job, c.sinr[idx])
	}
	return allocs
}

// nextAlloc extends allocs by one entry for UE idx, filling its UE, SINR
// and CQI in place (deliver writes its Alloc). Each UE is scheduled at
// most once per slot, so allocs never outgrows its capacity, the UE
// count.
//
//detlint:zeroalloc
func (c *Cell) nextAlloc(allocs []UEAlloc, idx int) []UEAlloc {
	allocs = allocs[:len(allocs)+1]
	a := &allocs[len(allocs)-1]
	a.UE = idx
	a.SINRdB = c.sinr[idx]
	a.CQI = c.cqi[idx]
	return allocs
}

// coupleLoad folds one slot's RB utilization into the EMA and
// periodically mirrors it into every UE's channel as the neighbor
// activity factor. Real co-UEs thus replace the statistical
// NeighborLoad: a saturated cell sees saturated neighbors.
//
//detlint:zeroalloc
func (c *Cell) coupleLoad(slot int64, allocs []UEAlloc) {
	granted := 0
	for i := range allocs {
		granted += allocs[i].Alloc.RBs
	}
	util := float64(granted) / float64(c.cfg.Carrier.NRB)
	c.loadEMA += (util - c.loadEMA) / loadEMAWindow
	if !c.cfg.DisableLoadCoupling && len(c.ues) > 1 && slot%loadPushPeriod == loadPushPeriod-1 {
		c.chb.SetNeighborLoad(c.loadEMA)
	}
}

// newContentionTB writes to dst a fresh transport block for an integer
// RB grant, sized through the share model's CQI→efficiency→OLLA→MCS chain
// (no RB jitter: the scheduler's split already decides the exact
// footprint).
//
//detlint:zeroalloc
func (c *Cell) newContentionTB(dst *harqJob, slot int64, idx int, report ue.Report, symbols, rbs int) bool {
	u := c.ues[idx]
	if c.tb.cqiEff(report.CQI) == 0 {
		return false
	}
	mcs := c.tb.mcsPick.pick(report.CQI, c.olla[idx])
	if !c.tb.size(dst, slot, symbols, rbs, mcs, report.RI) {
		return false
	}
	// A finite-traffic UE does not need its whole policy share for the
	// last TB of a burst: shrink the grant to the backlog (BSR-style),
	// leaving the unused RBs idle this slot — which is exactly the
	// load-dependent utilization the coupling below mirrors out. A shrunk
	// size that fails leaves dst as the full grant's TB.
	if need := u.buf.BacklogBits(); !u.buf.Full() && need < float64(dst.tbs) && rbs > 1 {
		shrunk := max(1, int(math.Ceil(float64(rbs)*need/float64(dst.tbs))))
		if shrunk < rbs {
			c.tb.size(dst, slot, symbols, shrunk, mcs, report.RI)
		}
	}
	return true
}

// deliver decodes one TB (fresh or retransmission) at the UE's current
// channel state, updating its OLLA offset, HARQ queue and RLC buffer, and
// writes its Alloc to dst.
//
//detlint:zeroalloc
func (c *Cell) deliver(dst *Alloc, slot int64, idx int, job *harqJob, sinrDB float64) {
	u := c.ues[idx]
	ack := c.tb.decode(u.rng.Float64(), job, sinrDB, &c.olla[idx])
	delivered := 0
	if ack {
		delivered = u.buf.Drain(job.tbs)
	} else if r, ok := c.tb.retry(job, slot); ok {
		u.harq = append(u.harq, r)
	}
	c.tb.alloc(dst, job, ack, delivered)
}

// popReadyFit moves to dst the first queued job that is both RTT-ready
// and fits the remaining RB budget. Jobs too large for this slot's
// leftovers stay queued — next slot's budget starts fresh at NRB, so they
// always fit eventually (rbs ≤ NRB by construction).
//
//detlint:zeroalloc
func popReadyFit(dst *harqJob, queue *[]harqJob, slot int64, maxRBs int) bool {
	q := *queue
	for i := range q {
		if q[i].readySlot <= slot && q[i].rbs <= maxRBs {
			*dst = q[i]
			*queue = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// LoadEMA returns the smoothed RB-utilization the load coupling mirrors
// into the UEs' channels (0 until traffic flows).
func (c *Cell) LoadEMA() float64 { return c.loadEMA }
