package experiments

import (
	"fmt"

	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/video"
	"github.com/midband5g/midband/internal/xcal"
)

// This file implements the ablation studies DESIGN.md calls out: each
// toggles one design choice of the simulator or the ABR stack and reports
// the delta, quantifying how much that choice contributes to the
// reproduced behaviour.

// AblationResult is a (variant, metric) pair.
type AblationResult struct {
	Variant string
	Value   float64
	Unit    string
}

// ablationLink builds a V_Sp link with a carrier-config mutation applied.
func ablationLink(o Options, mutate func(*gnb.CarrierConfig)) (*net5g.Link, error) {
	return newLink("V_Sp", operators.Stationary(o.seed()+999), func(c *net5g.LinkConfig) {
		if mutate != nil {
			mutate(&c.Carriers[0])
		}
	})
}

func ablationMeasureFull(o Options, mutate func(*gnb.CarrierConfig)) (dlMbps, bler, residualLoss float64, err error) {
	link, err := ablationLink(o, mutate)
	if err != nil {
		return 0, 0, 0, err
	}
	// Residual loss: transport blocks that exhausted their transmission
	// attempts without delivery (application-visible loss, left for TCP
	// to recover).
	h := &harqOutcomes{maxRetx: 3}
	if mutate != nil {
		probe := gnb.CarrierConfig{}
		mutate(&probe)
		if probe.DisableHARQ {
			h.maxRetx = 0
		}
	}
	res, err := iperf.Run(link, iperf.Config{Duration: o.sessionSeconds(10), Demand: net5g.Demand{DL: true}, Observers: []iperf.Observer{h}})
	if err != nil {
		return 0, 0, 0, err
	}
	if h.tbs > 0 {
		residualLoss = h.lost / h.tbs
	}
	return res.DLMbps, h.nacks / h.scheduled, residualLoss, nil
}

// harqOutcomes is the observer behind ablationMeasureFull. It counts the
// PCell DL slots with an allocation and their NACKs (the BLER), and the
// DL NR transport blocks that failed after maxRetx retransmissions (the
// residual loss).
type harqOutcomes struct {
	maxRetx                     int
	recs                        []xcal.SlotKPI // reused per step
	scheduled, nacks, tbs, lost float64
}

func (h *harqOutcomes) Observe(r *net5g.StepResult) error {
	if dl := r.NR[0].DL; dl != nil && dl.RBs > 0 {
		h.scheduled++
		if !dl.ACK {
			h.nacks++
		}
	}
	h.recs = net5g.KPIRecords(*r, h.recs[:0])
	for i := range h.recs {
		k := &h.recs[i]
		if k.Dir != xcal.DL || k.RAT != xcal.NR || k.TBSBits == 0 {
			continue
		}
		h.tbs++
		if !k.ACK && int(k.HARQRetx) >= h.maxRetx {
			h.lost++
		}
	}
	return nil
}

// ablationVariants runs the plan of one ablationMeasureFull arm per
// mutation; each arm builds its own link, so the arms are fully
// independent and the row order follows the variant order.
func ablationVariants(o Options, mutations ...func(*gnb.CarrierConfig)) ([]measuredVariant, error) {
	return rowPlan(len(mutations), func(i int) (measuredVariant, error) {
		dl, bler, loss, err := ablationMeasureFull(o, mutations[i])
		return measuredVariant{dl: dl, bler: bler, loss: loss}, err
	}).Run()
}

type measuredVariant struct {
	dl, bler, loss float64
}

// AblationOLLA compares outer-loop link adaptation on vs off: without it
// the stale-CQI mismatch goes uncorrected and BLER drifts off target.
func AblationOLLA(o Options) ([]AblationResult, error) {
	vs, err := ablationVariants(o, nil, func(c *gnb.CarrierConfig) { c.DisableOLLA = true })
	if err != nil {
		return nil, err
	}
	return []AblationResult{
		{"olla-on", vs[0].bler, "BLER"},
		{"olla-off", vs[1].bler, "BLER"},
	}, nil
}

// AblationHARQ compares HARQ retransmissions on vs off. Full-buffer
// goodput is nearly invariant (a retransmission slot and a fresh-TB slot
// carry similar bits), so the metric that matters is the residual loss
// rate: the fraction of transport blocks that are never delivered and must
// be recovered end-to-end. HARQ drives it to ≈BLER^4; without HARQ every
// first-transmission error is application-visible.
func AblationHARQ(o Options) ([]AblationResult, error) {
	vs, err := ablationVariants(o, nil, func(c *gnb.CarrierConfig) { c.DisableHARQ = true })
	if err != nil {
		return nil, err
	}
	return []AblationResult{
		{"harq-on", vs[0].dl, "Mbps"},
		{"harq-off", vs[1].dl, "Mbps"},
		{"harq-on", vs[0].loss, "residual-loss"},
		{"harq-off", vs[1].loss, "residual-loss"},
	}, nil
}

// AblationRankAdaptation compares adaptive rank against a fixed rank-1
// configuration — the 4× MIMO leverage §4.1 identifies.
func AblationRankAdaptation(o Options) ([]AblationResult, error) {
	vs, err := ablationVariants(o, nil, func(c *gnb.CarrierConfig) { c.CSI.MaxRank = 1 })
	if err != nil {
		return nil, err
	}
	return []AblationResult{
		{"rank-adaptive", vs[0].dl, "Mbps"},
		{"rank-1-fixed", vs[1].dl, "Mbps"},
	}, nil
}

// AblationCQIMapping compares vendor CQI→MCS aggressiveness by shifting the
// UE's reported-CQI optimism (3GPP leaves the mapping to vendors, §3.1).
func AblationCQIMapping(o Options) ([]AblationResult, error) {
	variants := []struct {
		name string
		db   float64
	}{{"conservative(1dB)", 1}, {"default(3dB)", 3}, {"aggressive(6dB)", 6}}
	mutations := make([]func(*gnb.CarrierConfig), len(variants))
	for i, v := range variants {
		db := v.db
		mutations[i] = func(c *gnb.CarrierConfig) { c.CSI.CQIOptimismDB = db }
	}
	vs, err := ablationVariants(o, mutations...)
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for i, v := range variants {
		out = append(out,
			AblationResult{v.name, vs[i].dl, "Mbps"},
			AblationResult{v.name, vs[i].bler, "BLER"})
	}
	return out, nil
}

// AblationScheduler compares the lone-UE full allocation with an
// equal-share two-UE split (the Fig. 14 scheduler policy).
func AblationScheduler(o Options) ([]AblationResult, error) {
	shares := []float64{1, 0.5}
	dl, err := rowPlan(len(shares), func(i int) (float64, error) {
		link, err := ablationLink(o, nil)
		if err != nil {
			return 0, err
		}
		res, err := iperf.Run(link, iperf.Config{Duration: o.sessionSeconds(8), Demand: net5g.Demand{DL: true, Share: shares[i]}})
		if err != nil {
			return 0, err
		}
		return res.DLMbps, nil
	}).Run()
	if err != nil {
		return nil, err
	}
	return []AblationResult{
		{"share-1.0", dl[0], "Mbps"},
		{"share-0.5", dl[1], "Mbps"},
	}, nil
}

// AblationBOLAGamma sweeps BOLA's gamma-p parameter, the knob trading
// bitrate against rebuffering risk. With the dash.js coupling Vp =
// minBuffer/gp, larger gp compresses the per-quality buffer thresholds:
// top quality is reached at shallower (riskier) buffer levels, so average
// bitrate grows with gp.
func AblationBOLAGamma(o Options) ([]AblationResult, error) {
	gps := []float64{0.5, 1, 2, 5}
	names := make([]string, len(gps))
	for i, gp := range gps {
		names[i] = fmt.Sprintf("gp=%.1f", gp)
	}
	type qoe struct{ normrate, stallPct float64 }
	arms, err := rowPlan(len(gps), func(i int) (qoe, error) {
		link, err := ablationLink(o, nil)
		if err != nil {
			return qoe{}, err
		}
		res, err := video.Play(link, video.SessionConfig{
			Ladder:        video.Ladder400,
			ChunkLength:   4_000_000_000,
			VideoDuration: o.videoDuration(120),
			ABR:           &video.BOLA{MinBufferSec: 10, GammaP: gps[i]},
		})
		if err != nil {
			return qoe{}, err
		}
		return qoe{res.AvgNormBitrate, res.StallPct()}, nil
	}).Run()
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for i := range gps {
		out = append(out,
			AblationResult{names[i], arms[i].normrate, "normrate"},
			AblationResult{names[i], arms[i].stallPct, "stall%"})
	}
	return out, nil
}
