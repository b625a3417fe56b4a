// Package iperf drives saturating bulk-transfer workloads over a simulated
// 5G link, mirroring the paper's iPerf3 measurement sessions (§2). Run
// reports a session's averages. Everything that reads individual steps is
// an Observer that Run calls once per link step: the Series observer
// records the slot-level KPI series every throughput figure (Figs. 1–6,
// 9, 10, 12–14) is computed from, and trace capture (core.Session.RunIperf)
// is another. A session without observers keeps no per-slot state.
package iperf

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/net5g"
)

// Observer watches a session step by step. Run calls Observe once per
// link step, after the step. The StepResult and everything it points to
// are rewritten by the next step, so an observer copies what it keeps.
// An error aborts the session.
type Observer interface {
	Observe(r *net5g.StepResult) error
}

// Config parameterizes one bulk-transfer session.
type Config struct {
	// Duration is the session length in simulated time.
	Duration time.Duration
	// Demand is the offered load (defaults to saturating both
	// directions for a lone UE).
	Demand net5g.Demand
	// Observers are called in order once per step.
	Observers []Observer
	// Discard is ignored: a session builds per-slot series only for a
	// Series observer.
	//
	// Deprecated: leave it unset. It remains only for bench/midbench,
	// its sole setter, and goes with that benchmark's next change.
	Discard bool
}

// Result is the outcome of a session: its averages, no per-slot data.
type Result struct {
	// SlotDuration is the link step, the period observers are called at.
	SlotDuration time.Duration
	// DLMbps and ULMbps are the session averages (UL includes the LTE
	// leg; NRULMbps and LTEULMbps split it).
	DLMbps, ULMbps, NRULMbps, LTEULMbps float64
	// Steps is how many link steps the session ran.
	Steps int
}

// Run executes a session on the link. The link keeps its state, so several
// sessions can be chained (e.g. warm-up then measurement).
func Run(link *net5g.Link, cfg Config) (*Result, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("iperf: duration %v invalid", cfg.Duration)
	}
	demand := cfg.Demand
	if !demand.DL && !demand.UL {
		demand = net5g.Saturate
	}
	steps := int(cfg.Duration / link.SlotDuration())
	if steps < 1 {
		return nil, fmt.Errorf("iperf: duration %v shorter than one slot", cfg.Duration)
	}

	var dlBits, ulBits, nrUL, lteUL float64
	var r net5g.StepResult // reused: the link rewrites every field per step
	for i := 0; i < steps; i++ {
		link.StepInto(&r, demand)
		dlBits += float64(r.DLBits)
		ulBits += float64(r.ULBits)
		nrUL += float64(r.NRULBits)
		lteUL += float64(r.LTEULBits)
		for _, o := range cfg.Observers {
			if err := o.Observe(&r); err != nil {
				return nil, fmt.Errorf("iperf: %w", err)
			}
		}
	}
	seconds := cfg.Duration.Seconds()
	return &Result{
		SlotDuration: link.SlotDuration(),
		Steps:        steps,
		DLMbps:       dlBits / seconds / 1e6,
		ULMbps:       ulBits / seconds / 1e6,
		NRULMbps:     nrUL / seconds / 1e6,
		LTEULMbps:    lteUL / seconds / 1e6,
	}, nil
}

// Series is the Observer that records a session's slot-level KPI series.
// Every series holds one sample per link step (τ = 0.5 ms for 30 kHz
// carriers), the paper's finest analysis granularity. Build it with
// NewSeries; a Series observing several sessions appends them in order.
type Series struct {
	// SlotDuration is the sampling period of the series.
	SlotDuration time.Duration

	// DLBitsPerSlot and ULBitsPerSlot are aggregate goodput series
	// across all carriers.
	DLBitsPerSlot, ULBitsPerSlot []float64

	// PCell DL KPI series (zero-valued on slots with no DL allocation).
	MCS, Rank, RBs, REs, CQI []float64
	// SINRdB is the PCell radio series (every slot).
	SINRdB []float64
	// Mod256 is 1.0 on slots transmitted with 256QAM, 0 otherwise;
	// ModOrder is the modulation order (2/4/6/8).
	Mod256, ModOrder []float64
	// ACK is 1.0 on slots whose transport block decoded.
	ACK []float64
}

// NewSeries returns a Series for a session of duration d on link, sized
// so that its appends never grow.
func NewSeries(link *net5g.Link, d time.Duration) *Series {
	slot := link.SlotDuration()
	steps := max(int(d/slot), 0)
	series := func() []float64 { return make([]float64, 0, steps) }
	return &Series{
		SlotDuration:  slot,
		DLBitsPerSlot: series(), ULBitsPerSlot: series(),
		MCS: series(), Rank: series(), RBs: series(), REs: series(), CQI: series(),
		SINRdB: series(), Mod256: series(), ModOrder: series(), ACK: series(),
	}
}

// Observe appends one step to every series.
func (s *Series) Observe(r *net5g.StepResult) error {
	s.DLBitsPerSlot = append(s.DLBitsPerSlot, float64(r.DLBits))
	s.ULBitsPerSlot = append(s.ULBitsPerSlot, float64(r.ULBits))

	pc := &r.NR[0]
	s.SINRdB = append(s.SINRdB, pc.Sample.SINRdB)
	s.CQI = append(s.CQI, float64(pc.CQI))
	if pc.DL != nil {
		s.MCS = append(s.MCS, float64(pc.DL.MCS))
		s.Rank = append(s.Rank, float64(pc.DL.Rank))
		s.RBs = append(s.RBs, float64(pc.DL.RBs))
		s.REs = append(s.REs, float64(pc.DL.REs))
		mod := pc.DL.Modulation()
		s.ModOrder = append(s.ModOrder, float64(mod))
		if mod == 8 {
			s.Mod256 = append(s.Mod256, 1)
		} else {
			s.Mod256 = append(s.Mod256, 0)
		}
		if pc.DL.ACK {
			s.ACK = append(s.ACK, 1)
		} else {
			s.ACK = append(s.ACK, 0)
		}
	} else {
		s.MCS = append(s.MCS, 0)
		s.Rank = append(s.Rank, 0)
		s.RBs = append(s.RBs, 0)
		s.REs = append(s.REs, 0)
		s.ModOrder = append(s.ModOrder, 0)
		s.Mod256 = append(s.Mod256, 0)
		s.ACK = append(s.ACK, 1)
	}
	return nil
}

// FilterByCQI returns the per-slot DL goodput restricted to slots whose CQI
// satisfies keep — the mechanism behind the paper's "CQI ≥ 12" (good
// channel) and "CQI < 10" conditioning in Figs. 2 and 10.
func (s *Series) FilterByCQI(keep func(cqi int) bool) (dlBitsPerSlot []float64) {
	out := make([]float64, 0, len(s.DLBitsPerSlot))
	for i, bits := range s.DLBitsPerSlot {
		if keep(int(s.CQI[i])) {
			out = append(out, bits)
		}
	}
	return out
}

// MbpsOf converts a bits-per-slot series average into Mbps.
func (s *Series) MbpsOf(bitsPerSlot []float64) float64 {
	if len(bitsPerSlot) == 0 {
		return 0
	}
	total := 0.0
	for _, b := range bitsPerSlot {
		total += b
	}
	return total / float64(len(bitsPerSlot)) / s.SlotDuration.Seconds() / 1e6
}

// ThroughputMbpsSeries returns the DL goodput series converted to Mbps at
// slot granularity.
func (s *Series) ThroughputMbpsSeries() []float64 {
	out := make([]float64, len(s.DLBitsPerSlot))
	scale := 1 / s.SlotDuration.Seconds() / 1e6
	for i, b := range s.DLBitsPerSlot {
		out[i] = b * scale
	}
	return out
}

// FilterDL restricts a PCell-aligned per-slot series (MCS, Rank, ...) to
// DL-scheduled slots, mirroring how the paper's per-slot parameter series
// only exist where a DCI scheduled data.
func (s *Series) FilterDL(series []float64) []float64 {
	out := make([]float64, 0, len(series))
	for i, v := range series {
		if i < len(s.RBs) && s.RBs[i] > 0 {
			out = append(out, v)
		}
	}
	return out
}

// DLThroughputProcess returns the PDSCH throughput process: the goodput of
// DL-scheduled slots only, concatenated. Dropping the deterministic TDD
// uplink gaps isolates the channel-driven dynamics — BLER events, MCS and
// rank moves — which is what the paper's multi-scale variability figures
// characterize (the fixed frame structure would otherwise dominate V(t) at
// scales near the TDD period).
func (s *Series) DLThroughputProcess() []float64 {
	out := make([]float64, 0, len(s.DLBitsPerSlot))
	scale := 1 / s.SlotDuration.Seconds() / 1e6
	for i, b := range s.DLBitsPerSlot {
		if s.RBs[i] > 0 {
			out = append(out, b*scale)
		}
	}
	return out
}
