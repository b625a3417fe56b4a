// Package iperf drives saturating bulk-transfer workloads over a simulated
// 5G link, mirroring the paper's iPerf3 measurement sessions (§2). It
// collects the slot-level KPI series that every throughput figure (Figs.
// 1–6, 9, 10, 12–14) is computed from.
package iperf

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/xcal"
)

// Config parameterizes one bulk-transfer session.
type Config struct {
	// Duration is the session length in simulated time.
	Duration time.Duration
	// Demand is the offered load (defaults to saturating both
	// directions for a lone UE).
	Demand net5g.Demand
	// Trace, when non-nil, receives every slot KPI record. Runs write
	// the columnar xcol.Writer; tests also pass the row xcal.Writer as
	// an oracle.
	Trace xcal.TraceWriter
	// KeepRecords retains all KPI records in the result (memory-heavy
	// for long runs; the per-series arrays are usually enough).
	KeepRecords bool
	// Discard skips collecting the per-slot series, leaving only the
	// session averages and Steps in the result. It drops nothing else:
	// Trace and KeepRecords see every record either way. Warm-up traffic
	// and campaign sessions, which read only the averages, use it to keep
	// the slot loop free of series appends; the simulation itself is
	// unaffected — every slot is stepped identically either way.
	Discard bool
}

// Result is the outcome of a session. All per-slot series are sampled at
// the PCell slot duration (τ = 0.5 ms for 30 kHz carriers), the paper's
// finest analysis granularity.
type Result struct {
	// SlotDuration is the sampling period of the series.
	SlotDuration time.Duration
	// DLMbps and ULMbps are the session averages (UL includes the LTE
	// leg; NRULMbps and LTEULMbps split it).
	DLMbps, ULMbps, NRULMbps, LTEULMbps float64
	// Steps is how many link steps the session ran.
	Steps int

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

	// Records are the raw KPI records when Config.KeepRecords is set.
	Records []xcal.SlotKPI
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

	res := &Result{SlotDuration: link.SlotDuration(), Steps: steps}
	if !cfg.Discard {
		res.DLBitsPerSlot = make([]float64, 0, steps)
		res.ULBitsPerSlot = make([]float64, 0, steps)
		res.MCS = make([]float64, 0, steps)
		res.Rank = make([]float64, 0, steps)
		res.RBs = make([]float64, 0, steps)
		res.REs = make([]float64, 0, steps)
		res.CQI = make([]float64, 0, steps)
		res.SINRdB = make([]float64, 0, steps)
		res.Mod256 = make([]float64, 0, steps)
		res.ModOrder = make([]float64, 0, steps)
		res.ACK = make([]float64, 0, steps)
	}

	var recBuf []xcal.SlotKPI
	if cfg.Trace != nil || cfg.KeepRecords {
		// A step yields at most one DL + one UL record per carrier plus
		// the LTE leg; preallocating keeps the per-step append loop out
		// of the allocator.
		recBuf = make([]xcal.SlotKPI, 0, 2*len(link.Carriers())+2)
	}
	if cfg.KeepRecords {
		res.Records = make([]xcal.SlotKPI, 0, 2*steps)
	}
	var dlBits, ulBits, nrUL, lteUL float64
	var r net5g.StepResult // reused: the link rewrites every field per step
	for i := 0; i < steps; i++ {
		link.StepInto(&r, demand)
		dlBits += float64(r.DLBits)
		ulBits += float64(r.ULBits)
		nrUL += float64(r.NRULBits)
		lteUL += float64(r.LTEULBits)
		if cfg.Trace != nil || cfg.KeepRecords {
			recBuf = net5g.KPIRecords(r, recBuf[:0])
			if cfg.Trace != nil {
				for j := range recBuf {
					if err := cfg.Trace.WriteKPI(&recBuf[j]); err != nil {
						return nil, fmt.Errorf("iperf: writing trace: %w", err)
					}
				}
			}
			if cfg.KeepRecords {
				res.Records = append(res.Records, recBuf...)
			}
		}
		if cfg.Discard {
			continue
		}
		res.DLBitsPerSlot = append(res.DLBitsPerSlot, float64(r.DLBits))
		res.ULBitsPerSlot = append(res.ULBitsPerSlot, float64(r.ULBits))

		pc := &r.NR[0]
		res.SINRdB = append(res.SINRdB, pc.Sample.SINRdB)
		res.CQI = append(res.CQI, float64(pc.CQI))
		if pc.DL != nil {
			res.MCS = append(res.MCS, float64(pc.DL.MCS))
			res.Rank = append(res.Rank, float64(pc.DL.Rank))
			res.RBs = append(res.RBs, float64(pc.DL.RBs))
			res.REs = append(res.REs, float64(pc.DL.REs))
			mod := pc.DL.Modulation()
			res.ModOrder = append(res.ModOrder, float64(mod))
			if mod == 8 {
				res.Mod256 = append(res.Mod256, 1)
			} else {
				res.Mod256 = append(res.Mod256, 0)
			}
			if pc.DL.ACK {
				res.ACK = append(res.ACK, 1)
			} else {
				res.ACK = append(res.ACK, 0)
			}
		} else {
			res.MCS = append(res.MCS, 0)
			res.Rank = append(res.Rank, 0)
			res.RBs = append(res.RBs, 0)
			res.REs = append(res.REs, 0)
			res.ModOrder = append(res.ModOrder, 0)
			res.Mod256 = append(res.Mod256, 0)
			res.ACK = append(res.ACK, 1)
		}
	}
	seconds := cfg.Duration.Seconds()
	res.DLMbps = dlBits / seconds / 1e6
	res.ULMbps = ulBits / seconds / 1e6
	res.NRULMbps = nrUL / seconds / 1e6
	res.LTEULMbps = lteUL / seconds / 1e6
	return res, nil
}

// FilterByCQI returns the per-slot DL goodput restricted to slots whose CQI
// satisfies keep — the mechanism behind the paper's "CQI ≥ 12" (good
// channel) and "CQI < 10" conditioning in Figs. 2 and 10.
func (r *Result) FilterByCQI(keep func(cqi int) bool) (dlBitsPerSlot []float64) {
	out := make([]float64, 0, len(r.DLBitsPerSlot))
	for i, bits := range r.DLBitsPerSlot {
		if keep(int(r.CQI[i])) {
			out = append(out, bits)
		}
	}
	return out
}

// MbpsOf converts a bits-per-slot series average into Mbps.
func (r *Result) MbpsOf(bitsPerSlot []float64) float64 {
	if len(bitsPerSlot) == 0 {
		return 0
	}
	total := 0.0
	for _, b := range bitsPerSlot {
		total += b
	}
	return total / float64(len(bitsPerSlot)) / r.SlotDuration.Seconds() / 1e6
}

// ThroughputMbpsSeries returns the DL goodput series converted to Mbps at
// slot granularity.
func (r *Result) ThroughputMbpsSeries() []float64 {
	out := make([]float64, len(r.DLBitsPerSlot))
	scale := 1 / r.SlotDuration.Seconds() / 1e6
	for i, b := range r.DLBitsPerSlot {
		out[i] = b * scale
	}
	return out
}

// FilterDL restricts a PCell-aligned per-slot series (MCS, Rank, ...) to
// DL-scheduled slots, mirroring how the paper's per-slot parameter series
// only exist where a DCI scheduled data.
func (r *Result) FilterDL(series []float64) []float64 {
	out := make([]float64, 0, len(series))
	for i, v := range series {
		if i < len(r.RBs) && r.RBs[i] > 0 {
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
func (r *Result) DLThroughputProcess() []float64 {
	out := make([]float64, 0, len(r.DLBitsPerSlot))
	scale := 1 / r.SlotDuration.Seconds() / 1e6
	for i, b := range r.DLBitsPerSlot {
		if r.RBs[i] > 0 {
			out = append(out, b*scale)
		}
	}
	return out
}
