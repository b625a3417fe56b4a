// Package net5g assembles an end-to-end 5G NSA link out of NR component
// carriers (carrier aggregation) plus the LTE anchor, and provides the
// user-plane latency model of §4.3. It is the layer the workload drivers
// (iperf, video) talk to.
package net5g

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/xcal"
)

// LinkConfig assembles a link.
type LinkConfig struct {
	// Carriers are the NR component carriers; index 0 is the primary
	// cell. European operators have exactly one (no CA, Table 2); US
	// operators aggregate several (Table 3).
	Carriers []gnb.CarrierConfig
	// LTEAnchor, when non-nil, adds the 4G leg used for NSA UL.
	LTEAnchor *lte.AnchorConfig
	// ULPolicy selects the NSA uplink split.
	ULPolicy lte.ULPolicy
	// ULDynamicThresholdDB is the NR UL per-layer SINR below which
	// ULDynamic shifts traffic to LTE (default 0 dB).
	ULDynamicThresholdDB float64
}

// Validate checks the configuration.
func (c LinkConfig) Validate() error {
	if len(c.Carriers) == 0 {
		return fmt.Errorf("net5g: link needs at least one NR carrier")
	}
	if c.ULPolicy == lte.ULPreferLTE && c.LTEAnchor == nil {
		return fmt.Errorf("net5g: ULPreferLTE requires an LTE anchor")
	}
	return nil
}

// Link is the end-to-end simulator. Not safe for concurrent use.
type Link struct {
	cfg      LinkConfig
	carriers []*gnb.Carrier
	anchor   *gnb.Carrier
	// timeline state: the link steps at the PCell slot duration;
	// carriers with longer slots step when their boundary passes.
	step     time.Duration
	now      time.Duration
	nextTick []time.Duration // per NR carrier
	lteTick  time.Duration

	lastPcellSINR float64 // previous step's PCell SINR, for UL routing
	havePcellSINR bool
	pcellULOffset float64 // PCell ULSINROffsetDB, hoisted off the step path

	results []gnb.SlotResult // reused per-step storage
	ticked  []bool           // reused StepResult.NRTicked storage
	lteRes  gnb.SlotResult   // reused StepResult.LTE storage
}

// NewLink builds the link.
func NewLink(cfg LinkConfig) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Link{cfg: cfg}
	chs := make([]*channel.Channel, len(cfg.Carriers))
	for i, cc := range cfg.Carriers {
		c, err := gnb.NewCarrier(cc)
		if err != nil {
			return nil, fmt.Errorf("net5g: carrier %d: %w", i, err)
		}
		l.carriers = append(l.carriers, c)
		chs[i] = c.Channel()
	}
	// Co-sited carriers on one route scan each UE position once.
	channel.ShareSiteScans(chs...)
	if cfg.LTEAnchor != nil {
		a, err := lte.NewAnchor(*cfg.LTEAnchor)
		if err != nil {
			return nil, fmt.Errorf("net5g: anchor: %w", err)
		}
		l.anchor = a
	}
	l.step = l.carriers[0].SlotDuration()
	for _, c := range l.carriers {
		if d := c.SlotDuration(); d < l.step {
			l.step = d
		}
	}
	l.nextTick = make([]time.Duration, len(l.carriers))
	l.results = make([]gnb.SlotResult, len(l.carriers))
	l.ticked = make([]bool, len(l.carriers))
	l.pcellULOffset = l.carriers[0].Config().ULSINROffsetDB
	return l, nil
}

// SlotDuration returns the link's stepping period (the shortest carrier
// slot).
func (l *Link) SlotDuration() time.Duration { return l.step }

// Now returns the simulated time.
func (l *Link) Now() time.Duration { return l.now }

// PCell returns the primary NR carrier.
func (l *Link) PCell() *gnb.Carrier { return l.carriers[0] }

// Carriers returns all NR carriers.
func (l *Link) Carriers() []*gnb.Carrier { return l.carriers }

// Anchor returns the LTE anchor carrier (nil if none).
func (l *Link) Anchor() *gnb.Carrier { return l.anchor }

// SetRSRQNeeded does nothing: Sample.RSRQdB derives RSRQ on read. It is
// kept only because the bench module's ledger (bench/midbench) calls it.
func (l *Link) SetRSRQNeeded(bool) {}

// StepResult aggregates one link step.
type StepResult struct {
	// Time is the step's start time.
	Time time.Duration
	// DLBits and ULBits are the goodput delivered this step across all
	// carriers (UL includes the LTE leg).
	DLBits, ULBits int
	// NRULBits and LTEULBits split the uplink by RAT.
	NRULBits, LTEULBits int
	// NR holds the per-carrier slot results for carriers that ticked
	// this step (indices matching Carriers()); entries for carriers that
	// did not tick have a zero Time and nil allocations.
	NR []gnb.SlotResult
	// NRTicked[i] reports whether carrier i produced NR[i] this step.
	NRTicked []bool
	// LTE is the anchor's result if it ticked.
	LTE *gnb.SlotResult
}

// Demand describes offered load for one step.
type Demand struct {
	// DL and UL indicate saturating traffic in each direction.
	DL, UL bool
	// Share is this UE's share of cell resources (1 = alone).
	Share float64
}

// Saturate is full-buffer bidirectional traffic for a lone UE.
var Saturate = Demand{DL: true, UL: true, Share: 1}

// Step advances the link by one step and returns what was delivered. The
// returned slices and the LTE pointer are owned by the Link and valid
// until the next Step.
//
//detlint:zeroalloc
func (l *Link) Step(d Demand) StepResult {
	var res StepResult
	l.StepInto(&res, d)
	return res
}

// StepInto is Step writing the result in place, so a caller's slot loop
// can reuse one StepResult instead of copying ~100 bytes per step. All
// fields of res are overwritten; the slices and the LTE pointer are owned
// by the Link and valid until the next step.
//
//detlint:zeroalloc
func (l *Link) StepInto(res *StepResult, d Demand) {
	if d.Share == 0 {
		d.Share = 1
	}
	res.Time = l.now
	res.DLBits, res.ULBits = 0, 0
	res.NRULBits, res.LTEULBits = 0, 0
	res.NR, res.NRTicked = l.results, l.ticked
	res.LTE = nil

	// Decide the NSA UL route once per step, based on PCell state.
	nrUL := d.UL
	lteUL := false
	if l.anchor != nil {
		switch l.cfg.ULPolicy {
		case lte.ULPreferLTE:
			nrUL, lteUL = false, d.UL
		case lte.ULNROnly:
			// keep nrUL
		default: // ULDynamic: LTE fallback below threshold
			if d.UL && l.pcellULWeak() {
				nrUL, lteUL = false, true
			}
		}
	}

	for i, c := range l.carriers {
		if l.now < l.nextTick[i] {
			// Carriers that do not tick this step report a zero result;
			// ticked entries are fully overwritten by StepInto below.
			res.NRTicked[i] = false
			l.results[i] = gnb.SlotResult{}
			continue
		}
		l.nextTick[i] += c.SlotDuration()
		dl := gnb.Demand{Active: d.DL, Share: d.Share}
		ul := gnb.Demand{Active: nrUL && i == 0, Share: d.Share} // UL rides the PCell
		r := &l.results[i]
		// Carrier result cached for one step only; overwritten before
		// this carrier re-steps.
		c.StepInto(r, dl, ul)
		res.NRTicked[i] = true
		if i == 0 {
			l.lastPcellSINR = r.Sample.SINRdB
			l.havePcellSINR = true
		}
		if r.DL != nil {
			res.DLBits += r.DL.DeliveredBits
		}
		if r.UL != nil {
			res.ULBits += r.UL.DeliveredBits
			res.NRULBits += r.UL.DeliveredBits
		}
	}
	if l.anchor != nil && l.now >= l.lteTick {
		l.lteTick += l.anchor.SlotDuration()
		l.lteRes = l.anchor.Step(gnb.Demand{}, gnb.Demand{Active: lteUL, Share: d.Share}) //detlint:allow bufown anchor result cached for one step only; overwritten before the anchor re-steps
		res.LTE = &l.lteRes
		if ul := l.lteRes.UL; ul != nil {
			res.ULBits += ul.DeliveredBits
			res.LTEULBits += ul.DeliveredBits
		}
	}
	l.now += l.step
}

// pcellULWeak reports whether the NR uplink is currently too weak: the
// previous step's PCell SINR minus the UL power deficit falls below the
// dynamic-split threshold. It is a coarse stand-in for the power-headroom
// reports real gNBs use; the one-step lag mirrors the reporting delay.
func (l *Link) pcellULWeak() bool {
	if !l.havePcellSINR {
		return true // no NR measurement yet: stay on the anchor
	}
	ulSINR := l.lastPcellSINR - l.pcellULOffset
	return ulSINR < l.cfg.ULDynamicThresholdDB
}

// KPIRecords converts a step result into xcal slot records, appending to
// dst and returning it.
func KPIRecords(res StepResult, dst []xcal.SlotKPI) []xcal.SlotKPI {
	for i := range res.NR {
		if !res.NRTicked[i] {
			continue
		}
		dst = appendKPI(dst, &res.NR[i], uint8(i), xcal.NR)
	}
	if res.LTE != nil {
		dst = appendKPI(dst, res.LTE, uint8(len(res.NR)), xcal.LTE)
	}
	return dst
}

func appendKPI(dst []xcal.SlotKPI, r *gnb.SlotResult, carrier uint8, rat xcal.RAT) []xcal.SlotKPI {
	base := xcal.SlotKPI{
		Slot:        r.Slot,
		Time:        r.Time,
		Carrier:     carrier,
		RAT:         rat,
		CQI:         uint8(r.CQI),
		ServingCell: uint16(r.Sample.ServingCell),
		SINRdB:      float32(r.Sample.SINRdB),
		RSRPdBm:     float32(r.Sample.RSRPdBm),
		RSRQdB:      float32(r.Sample.RSRQdB()),
		PosX:        float32(r.Sample.Pos.X),
		PosY:        float32(r.Sample.Pos.Y),
		Outage:      r.Sample.Outage,
	}
	emit := func(dir xcal.Direction, a *gnb.Alloc) {
		k := base
		k.Dir = dir
		k.MCSTable = uint8(a.Table)
		k.MCS = a.MCS
		k.Rank = uint8(a.Rank)
		k.HARQRetx = a.HARQRetx
		k.ACK = a.ACK
		k.RBs = uint16(a.RBs)
		k.REs = uint32(a.REs)
		k.TBSBits = uint32(a.TBSBits)
		k.DeliveredBits = uint32(a.DeliveredBits)
		dst = append(dst, k)
	}
	if r.DL != nil {
		emit(xcal.DL, r.DL)
	}
	if r.UL != nil {
		emit(xcal.UL, r.UL)
	}
	if r.DL == nil && r.UL == nil {
		// Idle or outage slot: keep the radio sample for coverage maps.
		dst = append(dst, base)
	}
	return dst
}
